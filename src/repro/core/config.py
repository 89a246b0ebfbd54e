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
"""

from __future__ import annotations

import dataclasses
from typing import Optional


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
    #: budget / ledger / tracing machinery and the equivalence
    #: contract; they differ in how candidates are found.
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

    #: Maximum number of substitution sweeps over the network.
    max_passes: int = 3

    #: Candidate divisors considered per dividend (closest supports
    #: first); keeps the pass near-linear on large networks.
    max_divisors: int = 25

    #: Upper bound on dividend cubes for a division attempt (guards
    #: the wire-by-wire removal loop).
    max_region_cubes: int = 64

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
    #: ``verify_commits`` full checks, simguided validation and the
    #: ``oracle_dc`` oracle (see
    #: :func:`~repro.network.verify.exact_equivalent`): "bdd" builds
    #: ROBDDs of every PO cone, "sat" solves a CNF miter with the CDCL
    #: engine (:mod:`repro.sat`), and "auto" picks BDDs up to
    #: :data:`~repro.network.verify.SAT_PI_THRESHOLD` (16) inputs and
    #: SAT above.  Both backends prove; only a SAT solve can end
    #: unknown (see ``sat_conflict_budget``), so the choice can change
    #: the output when a proof does not complete.
    verify_backend: str = "auto"

    #: Conflict budget per SAT solve.  An exhausted search is an
    #: *unknown* verdict, never treated as equal: the commit ledger
    #: rolls the commit back and quarantines the pair, simguided
    #: rejects the candidate, and the ``oracle_dc`` oracle keeps the
    #: wire (same contract as the D-alg backtrack budget).
    sat_conflict_budget: int = 100_000

    #: Prune division candidates with bit-parallel simulation
    #: signatures (see :mod:`repro.sim`).  The filter is sound — it
    #: only skips (divisor, variant) attempts that provably return no
    #: division — so results are identical with it on or off; it is a
    #: pure fast path.
    enable_sim_filter: bool = True

    #: Number of random input patterns packed into each signature
    #: (one Python int per signal).  More patterns refute more
    #: hopeless candidates at linear extra cost per bitwise op.
    sim_patterns: int = 256

    #: Seed for the per-PI signature stimulus (deterministic per PI
    #: name, so incremental and from-scratch simulation agree).
    sim_seed: int = 1

    #: Capacity of the per-node cube-signature LRU cache.
    sim_cache_size: int = 2048

    #: Capacity of the (dividend, divisor) containment-verdict LRU
    #: cache.
    containment_cache_size: int = 8192

    #: Worker processes for the speculative-evaluation engine (see
    #: :mod:`repro.parallel`).  ``1`` runs the plain serial loop;
    #: ``>1`` freezes a network snapshot per pass, evaluates surviving
    #: candidate pairs across workers and commits the results through
    #: the deterministic protocol, so output is byte-identical to the
    #: serial path.
    n_jobs: int = 1

    #: Candidate pairs per work unit shipped to a worker.  Small
    #: batches balance load and keep speculation fresh; large batches
    #: amortize the per-shard round trip (pickle + queue wakeup).
    #: 32 measured best on the suite: half the round trips of 16 with
    #: fewer invalidated outcomes than 64.
    batch_size: int = 32

    #: "process" uses a persistent :class:`concurrent.futures.
    #: ProcessPoolExecutor`; "serial" runs the same speculative engine
    #: in-process (debugging and the commit-protocol tests — no
    #: pickling across processes, same snapshot/commit semantics);
    #: "auto" (the default) picks "process" when the machine has more
    #: than one CPU and the first pass has enough candidate pairs to
    #: repay the pool's start-up
    #: (:data:`repro.parallel.executor.AUTO_POOL_MIN_PAIRS`), and the
    #: in-process engine otherwise — the protocol and its output are
    #: identical either way.
    parallel_backend: str = "auto"

    #: Wall-clock budget for one :func:`substitute_network` run, in
    #: seconds.  The run stops cleanly at the next pass/pair boundary
    #: (or mid-removal-loop for a single pathological pair), keeps its
    #: best-so-far network, and records a
    #: :class:`~repro.resilience.budget.BudgetReport` in the stats.
    deadline_seconds: Optional[float] = None

    #: Total :func:`boolean_divide` invocations allowed per run
    #: (``None`` = unlimited); same clean-stop semantics as the
    #: deadline.
    max_divide_calls: Optional[int] = None

    #: Total D-algorithm backtracks allowed per run across every ATPG
    #: call that shares the run's budget (``None`` = unlimited).
    max_run_backtracks: Optional[int] = None

    #: Transactional commits: spot-check every accepted substitution
    #: against the pre-optimization reference and roll back +
    #: quarantine the pair on miscompare (see
    #: :mod:`repro.resilience.checkpoint`).
    verify_commits: bool = False

    #: With ``verify_commits``, run the exact equivalence check
    #: (``verify_backend``) every this-many commits; the others use
    #: the cheap signature/simulation screen.
    verify_full_every: int = 16

    #: Failed speculative work batches are re-dispatched onto a fresh
    #: process pool this many times before the shard degrades to the
    #: in-process serial backend.
    max_shard_retries: int = 2

    #: Shards kept in flight per worker by the pipelined dispatcher
    #: (window = ``max(2, n_jobs * pipeline_depth)``), so worker
    #: evaluation overlaps the main process's commit loop instead of
    #: meeting it at a per-pass barrier.
    pipeline_depth: int = 2

    #: Ship signature bitmaps to the persistent pool through one
    #: ``multiprocessing.shared_memory`` segment instead of pickling
    #: them into every worker (falls back to the inline snapshot where
    #: shared memory is unavailable).
    share_signatures: bool = True

    #: ``method="simguided"``: divisor candidates collected into each
    #: target node's window (closest supports first; the truth-table
    #: core enumerates subsets of this pool).
    resub_window_size: int = 12

    #: ``method="simguided"``: maximum divisors per resynthesized
    #: replacement function (subset enumeration is size-ascending, so
    #: the engine prefers the smallest support that works).
    resub_max_divisors: int = 4

    #: ``method="simguided"``: intersect the simulated care set with
    #: the complement of the target's observability don't cares
    #: (computed exactly with :class:`~repro.network.dontcares.
    #: DontCareComputer` when the network is small enough).  SDCs need
    #: no explicit handling — unreachable fanin combinations never
    #: appear in simulation, so the sampled care set is SDC-free by
    #: construction.
    resub_use_dontcares: bool = True

    #: ``method="simguided"``: PI count up to which the exact ODC
    #: computation is attempted (the BDD-based computer is global and
    #: rebuilt after every commit; beyond this it costs more than the
    #: don't cares buy).
    resub_odc_max_pis: int = 12

    #: Stall watchdog: a speculative shard silent for more than this
    #: many seconds is flagged (a ``stall`` trace event + the
    #: ``stalls_detected`` counter) and fed into the containment ladder
    #: (redispatch → fresh pool → in-process fallback) instead of
    #: being waited on forever.  ``None`` (the default) disables the
    #: watchdog — results and timing are then exactly the pre-telemetry
    #: behavior.
    stall_timeout_seconds: Optional[float] = None

    def __post_init__(self):
        if self.mode not in ("basic", "extended"):
            raise ValueError("mode must be 'basic' or 'extended'")
        if self.method not in ("division", "simguided"):
            raise ValueError("method must be 'division' or 'simguided'")
        if self.resub_window_size < 1:
            raise ValueError("resub_window_size must be >= 1")
        if not 1 <= self.resub_max_divisors <= 6:
            raise ValueError("resub_max_divisors must be in 1..6")
        if self.resub_odc_max_pis < 0:
            raise ValueError("resub_odc_max_pis must be >= 0")
        if self.learn_depth < 0:
            raise ValueError("learn_depth must be >= 0")
        if self.sim_patterns < 1:
            raise ValueError("sim_patterns must be >= 1")
        if self.sim_cache_size < 1 or self.containment_cache_size < 1:
            raise ValueError("cache sizes must be >= 1")
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.parallel_backend not in ("auto", "process", "serial"):
            raise ValueError(
                "parallel_backend must be 'auto', 'process' or 'serial'"
            )
        if self.deadline_seconds is not None and self.deadline_seconds < 0:
            raise ValueError("deadline_seconds must be >= 0")
        if self.max_divide_calls is not None and self.max_divide_calls < 0:
            raise ValueError("max_divide_calls must be >= 0")
        if (
            self.max_run_backtracks is not None
            and self.max_run_backtracks < 0
        ):
            raise ValueError("max_run_backtracks must be >= 0")
        if self.verify_full_every < 1:
            raise ValueError("verify_full_every must be >= 1")
        if (
            self.stall_timeout_seconds is not None
            and self.stall_timeout_seconds <= 0
        ):
            raise ValueError("stall_timeout_seconds must be > 0")
        if self.verify_backend not in ("auto", "bdd", "sat"):
            raise ValueError(
                "verify_backend must be 'auto', 'bdd' or 'sat'"
            )
        if self.sat_conflict_budget < 0:
            raise ValueError("sat_conflict_budget must be >= 0")
        if self.max_shard_retries < 0:
            raise ValueError("max_shard_retries must be >= 0")
        if self.pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")


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
