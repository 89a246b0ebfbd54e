"""Configuration for the division/substitution engine.

The paper evaluates three configurations (Section V):

1. ``basic``   — basic division only,
2. ``ext``     — extended division, implications confined to the
                 dividend/divisor regions (no global don't cares),
3. ``ext GDC`` — extended division with implications through the whole
                 circuit plus recursive learning (global internal
                 don't cares).

The module-level constants :data:`BASIC`, :data:`EXTENDED` and
:data:`EXTENDED_GDC` are those three setups.

Only what a workload, a table, an ablation or a test sets is a field.
The engine's fixed sizes (passes per run, candidate divisors, region
cubes, signature patterns, cache capacities, simguided's window and
subset sizes) are module constants next to the code that reads them.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.resilience.budget import check_limits


@dataclasses.dataclass(frozen=True)
class DivisionConfig:
    """Knobs of the RAR division/substitution engine."""

    #: "basic" (divisor used as-is) or "extended" (divisor may be
    #: decomposed around a voted core).
    mode: str = "basic"

    #: Optimization engine: "division" runs the paper-faithful RAR
    #: division/substitution passes; "simguided" runs the
    #: simulation-guided resubstitution engine (:mod:`repro.resub`),
    #: which *constructs* candidate replacement functions from the
    #: bit-parallel signatures (truth-table windowing over small
    #: divisor sets, ODC-aware) and validates the few survivors
    #: exactly through ``verify_backend``.  Both engines share the
    #: budget / tracing machinery and the equivalence contract; they
    #: differ in how candidates are found.
    method: str = "division"

    #: Extend implications through the whole circuit (global internal
    #: don't cares) instead of only the dividend/divisor regions.
    global_dc: bool = False

    #: Recursive-learning depth used when checking untestability
    #: (0 = direct implications only).  The paper's GDC configuration
    #: corresponds to depth 1.
    learn_depth: int = 0

    #: Also attempt division in product-of-sums form (the paper's POS
    #: symmetric case).
    try_pos: bool = True

    #: Also try the complement of the divisor (substituting with a
    #: negative-phase literal of the divisor node).
    try_complement: bool = True

    #: Exact maximum-clique search is used up to this many vertices in
    #: the vote graph; larger graphs fall back to a greedy clique.
    exact_clique_limit: int = 30

    #: Oracle mode: when the implication test fails to prove a wire
    #: removable, additionally check with the exact equivalence
    #: verdict (``verify_backend``) whether removing it preserves every
    #: primary output (i.e. use the *complete* internal don't-care
    #: set, SDCs and ODCs); an unknown verdict keeps the wire.  Quality
    #: upper bound for the implication dial; very slow, used by the
    #: ablation benches only.
    oracle_dc: bool = False

    #: Backend of every exact equivalence check in a run — the
    #: ``verify_commits`` commit proofs, simguided validation and the
    #: ``oracle_dc`` oracle (see
    #: :func:`~repro.network.verify.exact_equivalent`): "auto"
    #: simulates every input pattern up to
    #: :data:`~repro.network.verify.EXHAUSTIVE_PI_LIMIT` (20) inputs
    #: and solves a CNF miter with the CDCL engine (:mod:`repro.sat`)
    #: above; "sat" always solves the miter.  Both backends prove;
    #: only a SAT solve can end unknown (see ``sat_conflict_budget``),
    #: so the choice can change the output when a proof does not
    #: complete.
    verify_backend: str = "auto"

    #: Conflict budget per SAT solve.  An exhausted search is an
    #: *unknown* verdict, never treated as equal: the commit ledger
    #: rolls the commit back and quarantines the pair, simguided
    #: rejects the candidate, and the ``oracle_dc`` oracle keeps the
    #: wire (same contract as the D-alg backtrack budget).  No
    #: workload lowers it; it stays as the seam through which the
    #: tests inject an unknown verdict (a budget of 0).
    sat_conflict_budget: int = 100_000

    #: Prune division candidates with bit-parallel simulation
    #: signatures (see :mod:`repro.sim`).  The filter is sound — it
    #: only skips (divisor, variant) attempts that provably return no
    #: division — so results are identical with it on or off; it is a
    #: pure fast path.  No workload or CLI flag turns it off; it stays
    #: as the unfiltered reference path the tests compare against.
    #: Off, the division engine keeps no signatures, so its witness
    #: screen is off too; the simguided engine always keeps its own.
    enable_sim_filter: bool = True

    #: Has no effect: every run takes the serial loop.  Still checked
    #: (``>= 1``) because the ``planted-ext-j2`` benchmark workload sets
    #: it; it retires together with that workload.
    n_jobs: int = 1

    #: Wall-clock budget for one :func:`substitute_network` run, in
    #: seconds.  The run stops cleanly at the next pass/pair boundary
    #: (or mid-removal-loop for a single pathological pair), keeps its
    #: best-so-far network, and records a
    #: :class:`~repro.resilience.budget.BudgetReport` in the stats.
    deadline_seconds: Optional[float] = None

    #: Total :func:`boolean_divide` invocations allowed per run
    #: (``None`` = unlimited); same clean-stop semantics as the
    #: deadline.  Unlike the deadline it trips at the same point on
    #: every run, which makes it the budget's deterministic cap.
    max_divide_calls: Optional[int] = None

    #: Transactional commits: the division engine proves every
    #: accepted substitution equivalent to the last proven state of
    #: the network (at first the input) and rolls back + quarantines
    #: the pair unless it is proven (see
    #: :mod:`repro.resilience.checkpoint`).  ``method="simguided"``
    #: proves every candidate whether or not this is set, so the field
    #: changes nothing there.
    verify_commits: bool = False

    #: Has no effect: with ``verify_commits`` every commit is proven.
    #: Still checked (``>= 1``) because the ``edit-verified`` benchmark
    #: workload sets it; it retires together with that override.
    verify_full_every: int = 16

    def __post_init__(self):
        if self.mode not in ("basic", "extended"):
            raise ValueError("mode must be 'basic' or 'extended'")
        if self.method not in ("division", "simguided"):
            raise ValueError("method must be 'division' or 'simguided'")
        if self.learn_depth < 0:
            raise ValueError("learn_depth must be >= 0")
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        check_limits(self.deadline_seconds, self.max_divide_calls)
        if self.verify_full_every < 1:
            raise ValueError("verify_full_every must be >= 1")
        if self.verify_backend not in ("auto", "sat"):
            raise ValueError("verify_backend must be 'auto' or 'sat'")
        if self.sat_conflict_budget < 0:
            raise ValueError("sat_conflict_budget must be >= 0")


#: Configuration 1 of the paper's experiments.
BASIC = DivisionConfig(mode="basic")

#: Configuration 2: extended division without global don't cares.
#: Implications (including one level of learning) stay confined to the
#: dividend/divisor regions — the paper's "limit our implication
#: process only inside a small region" setting.
EXTENDED = DivisionConfig(mode="extended", learn_depth=1)

#: Configuration 3: extended division with global don't cares.
EXTENDED_GDC = DivisionConfig(mode="extended", global_dc=True, learn_depth=1)

#: The simulation-guided resubstitution engine (:mod:`repro.resub`):
#: candidate replacement functions are built directly from signatures
#: and validated exactly, instead of being searched for with Boolean
#: division.  A second, independent engine over the same substrate —
#: its agreement with the division configurations is a standing
#: correctness oracle (see tests/resub/).
SIMGUIDED = DivisionConfig(method="simguided")

#: Oracle upper bound: extended division where every failed
#: implication test is retried against a complete-don't-care exact
#: equivalence oracle.  Not one of the paper's configurations — used to measure
#: how much of the full Boolean potential the implications capture.
ORACLE = DivisionConfig(
    mode="extended", global_dc=True, learn_depth=1, oracle_dc=True
)
