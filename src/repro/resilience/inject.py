"""Deterministic fault injection for the resilience test harness.

Used only by tests: an installed :class:`InjectionPlan` rides into the
speculative engine's worker payloads and fires on exact batch indices,
so every recovery path in :mod:`repro.parallel` — pool loss, worker
exceptions, slow workers, corrupted results, parent-side speculation
failures — is exercised deterministically in CI instead of waiting for
a real fault in production.

Hooks and where they fire:

* ``kill_on_batch`` — the worker process ``os._exit``\\ s while
  evaluating that batch (the pool breaks; the executor's redispatch
  ladder takes over).  Worker processes only.
* ``raise_on_batch`` — the worker raises ``RuntimeError`` (a
  per-future failure without losing the pool).  Worker processes only.
* ``sleep_on_batch`` — the worker stalls for ``sleep_seconds`` (slow
  shard; exercises deadline budgets against straggling workers, and —
  with ``stall_timeout_seconds`` armed — the
  :class:`~repro.parallel.executor.StallWatchdog`, which flags the
  silent shard and feeds it into the same containment ladder as a
  worker fault).  Worker processes only.
* ``corrupt_on_batch`` — the first profitable
  :class:`~repro.core.division.DivisionResult` in that batch has its
  substituted cover complemented: structurally valid, picklable, and
  functionally wrong, exactly what commit verification must catch.
  Fires in workers *and* in the in-process serial backend, so the
  rollback path is testable without process pools.
* ``raise_in_parent_on_batch`` — the evaluation raises in the *parent*
  process (serial backend or in-process fallback), exercising the
  engine-level containment that abandons speculation for the pass.

Destructive hooks (kill/raise/sleep) are gated on ``os.getpid() !=
parent_pid`` so a shard degraded to the in-process fallback can never
kill or wedge the parent.  ``persistent=False`` (the default) models a
transient fault: the executor disarms the plan when it rebuilds the
pool, so the redispatch succeeds.  ``persistent=True`` keeps firing,
forcing the shard down the degrade-to-serial rung of the ladder.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import time
from typing import Iterator, List, Optional


@dataclasses.dataclass(frozen=True)
class InjectionPlan:
    """Picklable description of the faults to inject (see module doc)."""

    kill_on_batch: Optional[int] = None
    raise_on_batch: Optional[int] = None
    sleep_on_batch: Optional[int] = None
    sleep_seconds: float = 0.0
    corrupt_on_batch: Optional[int] = None
    raise_in_parent_on_batch: Optional[int] = None
    #: Transient faults (False) are disarmed when the executor rebuilds
    #: its pool; persistent ones keep firing on every retry.
    persistent: bool = False
    #: Pid of the process that installed the plan; destructive hooks
    #: refuse to fire there.
    parent_pid: int = 0


def plan(**kwargs) -> InjectionPlan:
    """An :class:`InjectionPlan` stamped with the caller's pid."""
    kwargs.setdefault("parent_pid", os.getpid())
    return InjectionPlan(**kwargs)


# ----------------------------------------------------------------------
# Installation (consulted by SpeculativeEngine.precompute)
# ----------------------------------------------------------------------
_ACTIVE: Optional[InjectionPlan] = None


def install(injection_plan: InjectionPlan) -> None:
    global _ACTIVE
    _ACTIVE = injection_plan


def clear() -> None:
    global _ACTIVE
    _ACTIVE = None


def active() -> Optional[InjectionPlan]:
    return _ACTIVE


@contextlib.contextmanager
def injected(injection_plan: InjectionPlan) -> Iterator[InjectionPlan]:
    """Install *injection_plan* for the duration of a with-block."""
    install(injection_plan)
    try:
        yield injection_plan
    finally:
        clear()


# ----------------------------------------------------------------------
# Firing (called from WorkerContext.evaluate)
# ----------------------------------------------------------------------
def fire_batch_hooks(
    injection_plan: Optional[InjectionPlan], batch_index: int
) -> None:
    """Apply the pre-evaluation hooks for *batch_index* (if any)."""
    if injection_plan is None:
        return
    in_worker = os.getpid() != injection_plan.parent_pid
    if not in_worker:
        if injection_plan.raise_in_parent_on_batch == batch_index:
            raise RuntimeError(
                f"injected parent-side fault on batch {batch_index}"
            )
        return
    if injection_plan.kill_on_batch == batch_index:
        os._exit(86)
    if injection_plan.raise_on_batch == batch_index:
        raise RuntimeError(
            f"injected worker fault on batch {batch_index}"
        )
    if (
        injection_plan.sleep_on_batch == batch_index
        and injection_plan.sleep_seconds > 0
    ):
        time.sleep(injection_plan.sleep_seconds)


def corrupt_outcomes(
    injection_plan: Optional[InjectionPlan],
    batch_index: int,
    outcomes: List,
) -> bool:
    """Complement the first profitable result's cover, in place.

    Returns True when a result was corrupted.  The corrupted
    :class:`DivisionResult` keeps its fanins and (positive) gain, so it
    sails through the commit path untouched — only functional
    verification can reject it.
    """
    if (
        injection_plan is None
        or injection_plan.corrupt_on_batch != batch_index
    ):
        return False
    from repro.twolevel.complement import complement

    for i, outcome in enumerate(outcomes):
        result = outcome.result
        if result is None:
            continue
        corrupted = dataclasses.replace(
            result, new_cover=complement(result.new_cover)
        )
        outcomes[i] = dataclasses.replace(outcome, result=corrupted)
        return True
    return False
