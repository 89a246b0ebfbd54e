"""Run governance: budgets and verified checkpoints.

Long substitution runs must degrade gracefully instead of crashing or
silently corrupting the network (the contract ABC-style resub engines
enforce with verify-after-optimize spot checks).  This package holds
its two pillars:

* :mod:`repro.resilience.budget` — :class:`RunBudget`: a wall-clock
  deadline, checked at pass, pair, removal-test and subset
  granularity so any run stops cleanly with its best-so-far network
  and a :class:`BudgetReport` in the statistics.
* :mod:`repro.resilience.checkpoint` — :class:`CommitLedger`: opt-in
  transactional commits for the division engine; every accepted
  substitution is proven equivalent to the last proven state (each
  proof advancing that state), and a commit that is not proven rolls
  back and quarantines the (dividend, divisor) pair for the rest of
  the run.
"""

from repro.resilience.budget import (
    BudgetExhausted,
    BudgetReport,
    RunBudget,
)
from repro.resilience.checkpoint import CommitLedger

__all__ = [
    "BudgetExhausted",
    "BudgetReport",
    "RunBudget",
    "CommitLedger",
]
