"""Run budgets: deadline, divide-call, and ATPG-backtrack caps.

A :class:`RunBudget` is the one mutable ledger a run shares across the
substitution loop, the division engine, and the D-algorithm.  The
consumers check it at three granularities:

* **pass/pair** — :meth:`RunBudget.check` before every pass and every
  candidate (dividend, divisor) pair, so a tripped budget stops the run
  between pairs with the network in a committed, verified state;
* **removal loop** — :meth:`RunBudget.check_deadline` before every
  literal/cube redundancy test inside
  :class:`~repro.core.division.RegionRemover`, so a pathological
  implication blow-up inside *one* pair cannot overshoot a deadline by
  more than a single test;
* **D-alg** — :func:`repro.atpg.dalg.generate_test` clamps its
  per-call backtrack limit to what the run budget has left and charges
  the backtracks it actually spent.

Trips are reported by raising :class:`BudgetExhausted` (a control-flow
signal, not an error): callers unwind to a clean state, stop starting
new work, and fold :meth:`RunBudget.report` into the run statistics.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Callable, Optional


def check_limits(
    deadline_seconds: Optional[float],
    max_divide_calls: Optional[int],
    max_backtracks: Optional[int],
) -> None:
    """Raise ``ValueError`` unless every set limit is usable: the
    deadline finite and >= 0, the counts >= 0 (``None`` is unlimited).

    :class:`RunBudget` and :class:`~repro.core.config.DivisionConfig`
    both call this, so the messages name the config's fields.
    """
    if deadline_seconds is not None and not (
        math.isfinite(deadline_seconds) and deadline_seconds >= 0
    ):
        raise ValueError("deadline_seconds must be finite and >= 0")
    if max_divide_calls is not None and max_divide_calls < 0:
        raise ValueError("max_divide_calls must be >= 0")
    if max_backtracks is not None and max_backtracks < 0:
        raise ValueError("max_run_backtracks must be >= 0")


class BudgetExhausted(Exception):
    """Control-flow signal: the run budget tripped; stop cleanly."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclasses.dataclass
class BudgetReport:
    """JSON-ready summary of a budget at the end of a run."""

    #: True when the budget stopped the run before its natural end.
    stopped: bool
    #: What tripped first ("deadline", "divide_calls", "backtracks"),
    #: or ``None`` when the run finished within budget.
    reason: Optional[str]
    elapsed_seconds: float
    divide_calls: int
    backtracks: int
    atpg_incomplete: int
    deadline_seconds: Optional[float]
    max_divide_calls: Optional[int]
    max_backtracks: Optional[int]


class RunBudget:
    """Mutable spend ledger against optional limits.

    All limits are optional; a limit of ``None`` never trips.  The
    *clock* is injectable so deadline behaviour is unit-testable
    without sleeping.  Invalid limits raise ``ValueError`` (see
    :func:`check_limits`).
    """

    def __init__(
        self,
        deadline_seconds: Optional[float] = None,
        max_divide_calls: Optional[int] = None,
        max_backtracks: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        check_limits(deadline_seconds, max_divide_calls, max_backtracks)
        self.deadline_seconds = deadline_seconds
        self.max_divide_calls = max_divide_calls
        self.max_backtracks = max_backtracks
        self._clock = clock
        self._start = clock()
        self.divide_calls = 0
        self.backtracks = 0
        self.atpg_incomplete = 0
        #: First trip reason; latched so the report names the original
        #: cause even if several limits are exceeded by the time the
        #: run unwinds.
        self.stop_reason: Optional[str] = None

    @classmethod
    def from_config(cls, config) -> Optional["RunBudget"]:
        """A budget for *config*'s limits, or ``None`` if it sets none."""
        if (
            config.deadline_seconds is None
            and config.max_divide_calls is None
            and config.max_run_backtracks is None
        ):
            return None
        return cls(
            deadline_seconds=config.deadline_seconds,
            max_divide_calls=config.max_divide_calls,
            max_backtracks=config.max_run_backtracks,
        )

    # ------------------------------------------------------------------
    # Spend
    # ------------------------------------------------------------------
    def elapsed(self) -> float:
        return self._clock() - self._start

    def charge_divide_calls(self, n: int) -> None:
        self.divide_calls += n

    def charge_backtracks(self, n: int) -> None:
        self.backtracks += n

    def note_atpg_incomplete(self) -> None:
        """A D-alg call ran out of budget (verdict must be conservative)."""
        self.atpg_incomplete += 1

    def backtracks_remaining(self) -> Optional[int]:
        """Backtracks left before the cap, ``None`` when uncapped."""
        if self.max_backtracks is None:
            return None
        return max(0, self.max_backtracks - self.backtracks)

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def deadline_passed(self) -> bool:
        return (
            self.deadline_seconds is not None
            and self.elapsed() >= self.deadline_seconds
        )

    def exhausted(self) -> bool:
        """True once any limit has tripped (latches the first reason)."""
        if self.stop_reason is not None:
            return True
        if self.deadline_passed():
            self.stop_reason = "deadline"
        elif (
            self.max_divide_calls is not None
            and self.divide_calls >= self.max_divide_calls
        ):
            self.stop_reason = "divide_calls"
        elif (
            self.max_backtracks is not None
            and self.backtracks >= self.max_backtracks
        ):
            self.stop_reason = "backtracks"
        return self.stop_reason is not None

    def check(self) -> None:
        """Raise :class:`BudgetExhausted` if any limit has tripped."""
        if self.exhausted():
            raise BudgetExhausted(self.stop_reason)

    def check_deadline(self) -> None:
        """Cheap inner-loop check: only the wall-clock deadline."""
        if self.deadline_passed():
            self.stop_reason = self.stop_reason or "deadline"
            raise BudgetExhausted("deadline")

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> BudgetReport:
        return BudgetReport(
            stopped=self.exhausted(),
            reason=self.stop_reason,
            elapsed_seconds=self.elapsed(),
            divide_calls=self.divide_calls,
            backtracks=self.backtracks,
            atpg_incomplete=self.atpg_incomplete,
            deadline_seconds=self.deadline_seconds,
            max_divide_calls=self.max_divide_calls,
            max_backtracks=self.max_backtracks,
        )
