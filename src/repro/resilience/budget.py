"""Run budgets: a wall-clock deadline.

A :class:`RunBudget` is the one budget a run shares across the
substitution loop and both engines.  The consumers call
:meth:`RunBudget.check` at three granularities:

* **pass/pair** — before every pass and every candidate (dividend,
  divisor) pair, so a tripped budget stops the run between pairs with
  the network in a committed, verified state;
* **removal loop** — before every literal/cube redundancy test inside
  :class:`~repro.core.division.RegionRemover`, so a pathological
  implication blow-up inside *one* pair cannot overshoot a deadline by
  more than a single test;
* **subset walk** — before every subset of simguided's resynthesis
  walk.

Trips are reported by raising :class:`BudgetExhausted` (a control-flow
signal, not an error): callers unwind to a clean state, stop starting
new work, and fold :meth:`RunBudget.report` into the run statistics.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Callable, Optional


def validate_deadline(deadline_seconds: Optional[float]) -> None:
    """Raise ``ValueError`` unless the deadline is ``None`` (no limit)
    or finite and >= 0.

    :class:`RunBudget` and :class:`~repro.core.config.DivisionConfig`
    both call this, so the message names the config's field.
    """
    if deadline_seconds is not None and not (
        math.isfinite(deadline_seconds) and deadline_seconds >= 0
    ):
        raise ValueError("deadline_seconds must be finite and >= 0")


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
    #: ``"deadline"`` when the deadline stopped the run, ``None`` when
    #: the run finished within budget.
    reason: Optional[str]
    elapsed_seconds: float
    deadline_seconds: Optional[float]


class RunBudget:
    """An optional wall-clock deadline and the stop it latches.

    A deadline of ``None`` never trips.  The *clock* is injectable so
    deadline behaviour is unit-testable without sleeping.  An invalid
    deadline raises ``ValueError`` (see :func:`validate_deadline`).
    """

    def __init__(
        self,
        deadline_seconds: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        validate_deadline(deadline_seconds)
        self.deadline_seconds = deadline_seconds
        self._clock = clock
        self._start = clock()
        #: ``"deadline"`` once the deadline has stopped the run; latched
        #: so the report names a stop even if it is read much later.
        self.stop_reason: Optional[str] = None

    @classmethod
    def from_config(cls, config) -> Optional["RunBudget"]:
        """A budget for *config*'s deadline, or ``None`` if it sets
        none."""
        if config.deadline_seconds is None:
            return None
        return cls(deadline_seconds=config.deadline_seconds)

    def elapsed(self) -> float:
        return self._clock() - self._start

    def exhausted(self) -> bool:
        """True once the deadline has passed (latches the stop).

        Reads the clock once per call until the stop latches, and not
        at all after.
        """
        if (
            self.stop_reason is None
            and self.deadline_seconds is not None
            and self.elapsed() >= self.deadline_seconds
        ):
            self.stop_reason = "deadline"
        return self.stop_reason is not None

    def check(self) -> None:
        """Raise :class:`BudgetExhausted` once the deadline has passed."""
        if self.exhausted():
            raise BudgetExhausted(self.stop_reason)

    def report(self) -> BudgetReport:
        """The budget's state now.  ``stopped`` reports only a stop
        that happened: every stop latches :attr:`stop_reason`, and a
        deadline that passes after the run's last check stopped
        nothing.
        """
        return BudgetReport(
            stopped=self.stop_reason is not None,
            reason=self.stop_reason,
            elapsed_seconds=self.elapsed(),
            deadline_seconds=self.deadline_seconds,
        )
