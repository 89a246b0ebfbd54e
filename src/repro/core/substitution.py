"""Network-level Boolean substitution passes.

Drives the division machinery over a whole network, in the paper's
three experimental configurations (basic / ext / ext GDC).  Matching
the paper's implementation, acceptance is *locally greedy*: the first
division with a positive factored-literal gain is taken (Section V
notes this is why ext-GDC can occasionally lose to ext).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.network.factor import factored_literals, network_literals
from repro.network.network import Network
from repro.core.config import DivisionConfig
from repro.core.division import (
    apply_division,
    boolean_divide,
    build_analysis_circuit,
    divide_node_pair,
    enabled_attempts,
)
from repro.core.extended import (
    build_vote_table,
    choose_core_divisor,
    decompose_divisor,
    decompose_divisor_pos,
)
from repro.obs.tracer import NULL_TRACER, as_tracer
from repro.resilience.budget import BudgetExhausted, BudgetReport, RunBudget
from repro.resilience.checkpoint import CommitLedger


@dataclasses.dataclass
class SubstitutionStats:
    """Bookkeeping for one :func:`substitute_network` run."""

    attempts: int = 0
    accepted: int = 0
    wires_removed: int = 0
    cubes_removed: int = 0
    cores_extracted: int = 0
    literals_before: int = 0
    literals_after: int = 0
    cpu_seconds: float = 0.0
    #: Basic-division invocations of :func:`boolean_divide` requested
    #: (one per surviving (phase, form) variant per candidate pair).
    divide_calls: int = 0
    #: Candidate (dividend, divisor) pairs skipped outright because
    #: signatures proved every division variant hopeless.
    divisors_pruned: int = 0
    #: Individual (phase, form) variants skipped on pairs that were
    #: otherwise attempted.
    variants_pruned: int = 0
    #: Signature/verdict cache hits and misses (filter runs only).
    sim_cache_hits: int = 0
    sim_cache_misses: int = 0
    #: Nodes re-evaluated by incremental re-simulation after rewrites.
    resim_nodes: int = 0
    #: Worker processes used by the speculative engine (0 = plain
    #: serial path, 1 = in-process/serial backend).
    parallel_jobs: int = 0
    #: Work units shipped to the executor across all passes.
    parallel_batches: int = 0
    #: Candidate pairs speculatively evaluated against snapshots
    #: (including pairs the worker-side filter pruned).
    parallel_pairs_evaluated: int = 0
    #: Speculative outcomes committed without re-evaluation.
    parallel_pairs_reused: int = 0
    #: Speculative outcomes discarded because a committed rewrite
    #: touched their dividend/divisor (re-evaluated live).
    parallel_pairs_invalidated: int = 0
    #: Delta records shipped to the persistent worker pool across
    #: passes, and the node rewrites/deletions they carried.
    parallel_deltas_shipped: int = 0
    parallel_delta_nodes: int = 0
    #: Pairs dropped at shard-submit time because a commit had already
    #: rewritten one of their endpoints (never sent to a worker).
    parallel_pairs_stale_skipped: int = 0
    #: Wire accounting for the parallel protocol: bytes of the
    #: one-time base snapshot payload(s) and of the summed per-shard
    #: payloads (pair lists + delta log).
    parallel_snapshot_bytes: int = 0
    parallel_batch_bytes: int = 0
    #: Per-phase wall seconds of the parallel protocol
    #: (``snapshot_ship``, ``worker_build``, ``evaluate``,
    #: ``dispatch_wait``), accumulated across runs.
    parallel_phase_seconds: Dict[str, float] = dataclasses.field(
        default_factory=dict
    )
    #: D-alg searches that ran out of backtracks/deadline; their
    #: verdicts were treated conservatively as "not redundant".
    atpg_incomplete: int = 0
    #: Worker-side failures the executor contained (broken pools,
    #: worker exceptions, pickling errors).
    worker_faults: int = 0
    #: Failed work batches re-dispatched onto a fresh process pool.
    shards_redispatched: int = 0
    #: Times speculative work fell back to in-process evaluation
    #: (exhausted shard retries, or a whole-pass speculation failure).
    degraded_to_serial: int = 0
    #: Commit verifications run / rolled back, and pairs quarantined,
    #: under ``config.verify_commits``.
    commits_verified: int = 0
    commits_rolled_back: int = 0
    pairs_quarantined: int = 0
    #: SAT-backend work done by the run's exact checks (the commit
    #: ledger's full checks and simguided validation, through
    #: :meth:`add_solver_work`).  Deterministic for a fixed (circuit,
    #: config, code) triple — the CDCL engine has no randomness — so
    #: they repeat exactly from run to run, like ``divide_calls``.
    sat_solves: int = 0
    sat_conflicts: int = 0
    sat_decisions: int = 0
    sat_propagations: int = 0
    sat_learned: int = 0
    #: Simulation-guided resubstitution (``method="simguided"``, see
    #: :mod:`repro.resub`).  All deterministic — windowing, subset
    #: enumeration and validation have no randomness — so they
    #: repeat exactly from run to run, like ``divide_calls``.
    #: Target nodes visited, and windows with at least one divisor.
    resub_targets: int = 0
    resub_windows: int = 0
    #: Consistent candidate covers produced by the truth-table core
    #: (subsets whose signatures admit *some* matching function).
    resub_candidates: int = 0
    #: Exact whole-network validations run on gain-positive candidates.
    resub_validated: int = 0
    #: Candidates rejected on a SAT don't-know (exhausted conflict
    #: budget) — unproven candidates are never committed.
    resub_rejected_unknown: int = 0
    #: Candidates that validated and committed.
    resub_accepted: int = 0
    #: Literals/cubes dropped from candidate covers by the
    #: excitation-only ATPG redundancy cleanup.
    resub_wires_cleaned: int = 0
    #: Shards the executor's stall watchdog flagged as silent past
    #: the threshold.  Timing-dependent, so it may differ between runs.
    stalls_detected: int = 0
    #: Structured incident records (JSON-ready dicts) — one per
    #: rolled-back commit; surfaces through ``--stats-json``.
    incidents: List[Dict[str, object]] = dataclasses.field(
        default_factory=list
    )
    #: Budget summary when the run carried a
    #: :class:`~repro.resilience.budget.RunBudget` (else ``None``).
    budget_report: Optional[BudgetReport] = None

    def add_solver_work(self, verdict) -> None:
        """Count one exact verdict's SAT solve (a BDD verdict adds
        nothing)."""
        if verdict.backend != "sat":
            return
        self.sat_solves += 1
        self.sat_conflicts += verdict.conflicts
        self.sat_decisions += verdict.decisions
        self.sat_propagations += verdict.propagations
        self.sat_learned += verdict.learned

    def improvement(self) -> float:
        if self.literals_before == 0:
            return 0.0
        return 100.0 * (
            self.literals_before - self.literals_after
        ) / self.literals_before


def _candidate_divisors(
    network: Network, f_name: str, config: DivisionConfig
) -> List[str]:
    """Divisor candidates for *f*, closest supports first.

    A divisor must be an internal, non-constant node that does not
    depend on *f* (no combinational cycle) and must be related to
    *f*'s support: either it shares fanin signals with *f* (cube
    containment needs common literals) or it *is* one of *f*'s fanins
    (re-dividing by an existing fanin is how implication conflicts
    through that fanin's logic simplify *f* — the SDC-style rewrites).

    Signature-based pruning of these candidates deliberately does
    *not* happen here: *f* may be rewritten while the returned list is
    being worked through, so a divisor hopeless against today's *f*
    can become divisible mid-loop.  The filter is instead consulted
    per pair at attempt time (see :func:`substitute_pass`), which is
    what keeps filtered and unfiltered runs byte-identical.
    """
    f_node = network.nodes[f_name]
    f_support = set(f_node.fanins)
    blocked = network.transitive_fanout(f_name)
    blocked.add(f_name)
    scored: List[Tuple[int, int, int, str]] = []
    for position, node in enumerate(network.internal_nodes()):
        if node.name in blocked or node.is_constant():
            continue
        overlap = len(f_support & set(node.fanins))
        is_fanin = node.name in f_support
        if overlap == 0 and not is_fanin:
            continue
        # Existing fanins are tried *last*: their in-place rewrites are
        # cleanups that should not pre-empt genuine substitutions.
        scored.append((int(is_fanin), -overlap, position, node.name))
    scored.sort()
    return [name for _, _, _, name in scored[: config.max_divisors]]


class _Snapshot:
    """Undo buffer for a handful of nodes (used on rejected rewrites)."""

    def __init__(self, network: Network, names: Sequence[str]):
        self.network = network
        self.saved = {
            name: (
                list(network.nodes[name].fanins),
                network.nodes[name].cover,
            )
            for name in names
            if name in network.nodes
        }
        self.created: List[str] = []

    def note_created(self, name: str) -> None:
        self.created.append(name)

    def restore(self) -> None:
        for name, (fanins, cover) in self.saved.items():
            self.network.nodes[name].set_function(fanins, cover)
        for name in self.created:
            if name in self.network.nodes:
                fanouts = self.network.fanouts()[name]
                if not fanouts and name not in self.network.pos:
                    self.network.remove_node(name)


def _note_mutation(sim_filter, names: Sequence[str]) -> None:
    """Refresh maintained signatures after rewriting *names* (if any)."""
    if sim_filter is not None:
        sim_filter.note_mutation(names)


def _try_extended(
    network: Network,
    f_name: str,
    divisors: List[str],
    config: DivisionConfig,
    stats: SubstitutionStats,
    form: str = "sop",
    sim_filter=None,
    budget=None,
    ledger=None,
    tracer=NULL_TRACER,
) -> bool:
    """One extended-division attempt on *f* over pooled divisors.

    ``form="pos"`` runs the paper's symmetric case: the vote table is
    built over sum terms (in the dual space) and the divisor is
    decomposed as a product ``d = dc · dr``.  The POS side is only
    attempted on compactly product-formed functions (small complement
    covers) — on SOP-heavy nodes the dual space explodes and the basic
    POS attempts already cover the whole-divisor case.
    """
    if form == "pos":
        from repro.twolevel.complement import complement as _complement

        f_cover = network.nodes[f_name].cover
        dual = _complement(f_cover)
        if dual.num_cubes() > min(
            config.max_region_cubes, 2 * f_cover.num_cubes() + 4
        ):
            return False
        divisors = [
            d
            for d in divisors
            if _complement(network.nodes[d].cover).num_cubes() <= 8
        ]
        if not divisors:
            return False
    with tracer.span("vote", f=f_name, form=form) as vote_span:
        table = build_vote_table(network, f_name, divisors, config, form=form)
        choice = choose_core_divisor(table, config)
        vote_span.annotate(
            wires=len(table.entries),
            candidates=sum(1 for entry in table.entries if entry.candidates),
        )
    if choice is None:
        return False
    d_name = choice.divisor_name
    if ledger is not None and ledger.is_quarantined(f_name, d_name):
        return False
    d_node = network.nodes[d_name]
    whole = len(choice.cube_indices) == len(
        table.divisor_cubes[d_name].cubes
    )

    stats.attempts += 1
    if whole and form == "pos":
        # Whole-divisor POS division is already tried by the basic
        # per-divisor loop; only the decomposition case is new here.
        return False
    if whole:
        result = boolean_divide(
            network, f_name, d_name, config, form=form, budget=budget,
            tracer=tracer,
        )
        if result is None or result.gain <= 0:
            return False
        with tracer.span(
            "commit", f=f_name, d=d_name, via="extended-whole"
        ) as commit_span:
            snapshot = _Snapshot(network, [f_name])
            apply_division(network, result)
            _note_mutation(sim_filter, [f_name])
            if ledger is not None and not ledger.verify_commit(
                network, f_name, d_name, tracer
            ):
                snapshot.restore()
                _note_mutation(sim_filter, [f_name])
                ledger.quarantine(f_name, d_name)
                commit_span.annotate(accepted=False)
                return False
            stats.accepted += 1
            stats.wires_removed += result.wires_removed
            stats.cubes_removed += result.cubes_removed
            commit_span.annotate(accepted=True, gain=result.gain)
            return True

    # Decompose the divisor around the core, then basic-divide by the
    # exposed core node; accept only if the *total* factored literal
    # count (dividend + divisor + new core node) actually drops, and
    # undo the decomposition otherwise.
    snapshot = _Snapshot(network, [f_name, d_name])
    before_total = (
        factored_literals(network.nodes[f_name].cover)
        + factored_literals(d_node.cover)
    )
    if form == "sop":
        core_name = decompose_divisor(network, d_name, choice.cube_indices)
    else:
        core_name = decompose_divisor_pos(
            network, d_name, choice.cube_indices
        )
    snapshot.note_created(core_name)
    try:
        result = boolean_divide(
            network, f_name, core_name, config, form=form, budget=budget,
            tracer=tracer,
        )
    except BudgetExhausted:
        # The divisor is already decomposed; undo before unwinding so
        # the budget stop leaves the network in a committed state.
        snapshot.restore()
        _note_mutation(sim_filter, [f_name, d_name, core_name])
        raise
    if result is None:
        snapshot.restore()
        _note_mutation(sim_filter, [f_name, d_name, core_name])
        return False
    with tracer.span(
        "commit", f=f_name, d=d_name, via="extended-core"
    ) as commit_span:
        apply_division(network, result)
        _note_mutation(sim_filter, [f_name, d_name, core_name])
        after_total = (
            factored_literals(network.nodes[f_name].cover)
            + factored_literals(network.nodes[d_name].cover)
            + factored_literals(network.nodes[core_name].cover)
        )
        if after_total >= before_total:
            snapshot.restore()
            _note_mutation(sim_filter, [f_name, d_name, core_name])
            commit_span.annotate(accepted=False)
            return False
        if ledger is not None and not ledger.verify_commit(
            network, f_name, d_name, tracer
        ):
            snapshot.restore()
            _note_mutation(sim_filter, [f_name, d_name, core_name])
            ledger.quarantine(f_name, d_name)
            commit_span.annotate(accepted=False)
            return False
        stats.accepted += 1
        stats.cores_extracted += 1
        stats.wires_removed += result.wires_removed
        stats.cubes_removed += result.cubes_removed
        commit_span.annotate(
            accepted=True, gain=before_total - after_total
        )
        return True


def substitute_pass(
    network: Network,
    config: DivisionConfig,
    stats: Optional[SubstitutionStats] = None,
    sim_filter=None,
    store=None,
    budget=None,
    ledger=None,
    tracer=None,
) -> int:
    """One sweep over all nodes; returns accepted substitutions.

    *sim_filter* is an optional :class:`~repro.sim.filter.DivisorFilter`
    over *network* whose signatures are current; candidate (divisor,
    variant) attempts it refutes are skipped.  Because the filter is
    sound, the pass produces the same network with or without it.

    *store* is an optional
    :class:`~repro.parallel.engine.SpeculativeStore` of division
    outcomes pre-evaluated against a snapshot of *network* taken at
    pass start.  The greedy visit order and every commit decision are
    unchanged — the store only short-circuits pair evaluations whose
    speculative outcome is provably still valid, so the pass result is
    byte-identical with or without it (the deterministic commit
    protocol; see DESIGN.md).

    *budget* is an optional
    :class:`~repro.resilience.budget.RunBudget`, checked before every
    candidate pair (and, for the deadline, inside the removal loop);
    when it trips the pass stops cleanly between commits and returns
    what it accepted so far.  *ledger* is an optional
    :class:`~repro.resilience.checkpoint.CommitLedger`: every accepted
    rewrite is verified against the pre-optimization reference, rolled
    back on miscompare, and the pair quarantined for the rest of the
    run.

    *tracer* is an optional :class:`~repro.obs.tracer.Tracer`; the
    pass records ``enumerate``/``pair``/``divide``/``atpg``/``commit``/
    ``verify`` spans under the caller's ``pass`` span.  ``None``
    traces nothing and costs nothing.
    """
    if stats is None:
        stats = SubstitutionStats()
    accepted_before = stats.accepted
    try:
        _run_pass(
            network, config, stats, sim_filter, store, budget, ledger,
            as_tracer(tracer),
        )
    except BudgetExhausted:
        # Clean stop: every commit so far is applied (and verified, in
        # transactional mode); the caller reads budget.report().
        pass
    return stats.accepted - accepted_before


def _run_pass(
    network: Network,
    config: DivisionConfig,
    stats: SubstitutionStats,
    sim_filter,
    store,
    budget,
    ledger,
    tracer,
) -> None:
    accepted_before = stats.accepted
    n_enabled = len(enabled_attempts(config))
    names = [node.name for node in network.internal_nodes()]
    for f_name in names:
        if f_name not in network.nodes:
            continue
        node = network.nodes[f_name]
        if node.is_pi or node.is_constant() or node.cover is None:
            continue
        with tracer.span("enumerate", f=f_name) as enum_span:
            divisors = None
            if store is not None and stats.accepted == accepted_before:
                # Nothing committed this pass yet (a rejected rewrite is
                # restored): the network is the one the speculative
                # enumeration listed candidates on.
                divisors = store.divisors.get(f_name)
            if divisors is None:
                divisors = _candidate_divisors(network, f_name, config)
            enum_span.annotate(divisors=len(divisors))
        if not divisors:
            continue

        # Basic attempts per divisor first (this is the whole story in
        # basic mode; in extended mode it takes the cheap wins so the
        # decomposition step below only fires where basic failed).
        # In GDC mode the analysis circuit covers the whole network
        # minus TFO(f) and is divisor-independent, so it is built once
        # per dividend (rewrites of f itself never invalidate it — f's
        # own gates are excluded by construction).  It is built lazily:
        # when every pair of this dividend commits from the speculative
        # store, no live evaluation needs it.
        shared_circuit = None

        def _gdc_circuit(f_name=f_name):
            nonlocal shared_circuit
            if config.global_dc and shared_circuit is None:
                shared_circuit = build_analysis_circuit(
                    network, f_name, [], config
                )
            return shared_circuit

        for d_name in divisors:
            if d_name not in network.nodes:
                continue
            if budget is not None:
                budget.check()
            if ledger is not None and ledger.is_quarantined(
                f_name, d_name
            ):
                # Checked before the store: a rollback restores the
                # pre-commit node state exactly, so the stale
                # speculative outcome would otherwise be served again.
                continue
            with tracer.span("pair", f=f_name, d=d_name) as pair_span:
                outcome = None
                if store is not None:
                    # A valid speculative outcome equals what the live
                    # evaluation below would produce (the store's
                    # validity contract), so committing from it
                    # preserves the serial greedy sequence exactly.
                    # ``mutated`` is the count of commits this pass
                    # (int, truthy once anything landed): the store's
                    # whole-network invalidation trigger, and the
                    # dispatcher's cue for when a mid-pass delta ship
                    # could actually carry something new.
                    outcome = store.lookup(
                        network,
                        f_name,
                        d_name,
                        mutated=stats.accepted - accepted_before,
                    )
                if outcome is not None:
                    pair_speculative = True
                    if outcome.pruned:
                        stats.divisors_pruned += 1
                        pair_span.annotate(
                            speculative=True, pruned=True
                        )
                        continue
                    stats.attempts += 1
                    stats.divide_calls += outcome.divide_calls
                    if budget is not None:
                        budget.charge_divide_calls(outcome.divide_calls)
                    stats.variants_pruned += outcome.variants_pruned
                    result = outcome.result
                else:
                    pair_speculative = False
                    attempts = None
                    if sim_filter is not None:
                        # Pruning is evaluated against the *current*
                        # network state, so a skip is a proof
                        # divide_node_pair would return None right now
                        # — never a changed outcome.
                        attempts = sim_filter.viable_attempts(
                            f_name, d_name
                        )
                        if not attempts:
                            stats.divisors_pruned += 1
                            pair_span.annotate(pruned=True)
                            continue
                        stats.variants_pruned += n_enabled - len(attempts)
                    stats.attempts += 1
                    calls = n_enabled if attempts is None else len(attempts)
                    stats.divide_calls += calls
                    if budget is not None:
                        budget.charge_divide_calls(calls)
                    result = divide_node_pair(
                        network,
                        f_name,
                        d_name,
                        config,
                        circuit=_gdc_circuit(),
                        attempts=attempts,
                        budget=budget,
                        tracer=tracer,
                    )
                if result is None:
                    pair_span.annotate(
                        speculative=pair_speculative, accepted=False
                    )
                    continue
                with tracer.span(
                    "commit", f=f_name, d=d_name, via="basic"
                ) as commit_span:
                    snapshot = _Snapshot(network, [f_name])
                    apply_division(network, result)
                    _note_mutation(sim_filter, [f_name])
                    if ledger is not None and not ledger.verify_commit(
                        network, f_name, d_name, tracer
                    ):
                        snapshot.restore()
                        _note_mutation(sim_filter, [f_name])
                        ledger.quarantine(f_name, d_name)
                        commit_span.annotate(accepted=False)
                        continue
                    stats.accepted += 1
                    stats.wires_removed += result.wires_removed
                    stats.cubes_removed += result.cubes_removed
                    commit_span.annotate(
                        accepted=True, gain=result.gain
                    )
                    pair_span.annotate(
                        speculative=pair_speculative, accepted=True
                    )

        if config.mode == "extended":
            # Extended division over the pooled candidates; repeat while
            # it keeps paying (f shrinks each time).  The pool is *not*
            # signature-pruned: with regional implications the pooled
            # divisors' gates feed the shared analysis circuit, so
            # dropping one would weaken implications for the others.
            for _ in range(4):
                if budget is not None:
                    budget.check()
                divisors = _candidate_divisors(network, f_name, config)
                if not divisors or not _try_extended(
                    network,
                    f_name,
                    divisors,
                    config,
                    stats,
                    sim_filter=sim_filter,
                    budget=budget,
                    ledger=ledger,
                    tracer=tracer,
                ):
                    break

    if config.mode == "extended" and config.try_pos:
        # The symmetric POS-side case (paper, end of Sec. IV) runs as a
        # second phase: a divisor decomposition perturbs every later
        # attempt on other dividends, so the SOP opportunities are
        # harvested across the whole network first.
        for f_name in names:
            if f_name not in network.nodes:
                continue
            node = network.nodes[f_name]
            if node.is_pi or node.is_constant() or node.cover is None:
                continue
            for _ in range(2):
                if budget is not None:
                    budget.check()
                divisors = _candidate_divisors(network, f_name, config)
                if not divisors or not _try_extended(
                    network,
                    f_name,
                    divisors,
                    config,
                    stats,
                    form="pos",
                    sim_filter=sim_filter,
                    budget=budget,
                    ledger=ledger,
                    tracer=tracer,
                ):
                    break


def substitute_network(
    network: Network,
    config: DivisionConfig,
    reference: Optional[Network] = None,
    stats: Optional[SubstitutionStats] = None,
    n_jobs: Optional[int] = None,
    budget=None,
    tracer=None,
) -> SubstitutionStats:
    """Run substitution passes to a fixpoint (the paper's "one run").

    Returns the statistics, including factored-literal counts before
    and after and the wall-clock time spent.  Passing an existing
    *stats* object accumulates into it — every counter (including the
    sim-filter cache/resim counters and the literal totals) is *added*,
    never overwritten, so multi-run flows can aggregate one ledger
    across calls.

    *n_jobs* overrides ``config.n_jobs``.  With more than one job each
    pass runs the speculative engine (:mod:`repro.parallel`): candidate
    pairs are evaluated against a frozen snapshot on worker processes
    (or in-process for ``parallel_backend="serial"``) and committed in
    the serial greedy order through the deterministic protocol, so the
    optimized network is byte-identical to a serial run.

    *budget* is an optional
    :class:`~repro.resilience.budget.RunBudget` shared with the caller
    (e.g. across a multi-network flow); when it is ``None`` one is
    built from the config's limits (``deadline_seconds``,
    ``max_divide_calls``, ``max_run_backtracks``), if any.  A tripped
    budget stops the run cleanly with the best-so-far network and a
    :class:`~repro.resilience.budget.BudgetReport` in
    ``stats.budget_report``.  With ``config.verify_commits`` every
    accepted rewrite is verified against a pre-run reference copy,
    rolled back on miscompare, and the offending pair quarantined
    (incidents land in ``stats.incidents``).

    *tracer* is an optional :class:`~repro.obs.tracer.Tracer`; the run
    records a ``run`` span with one ``pass`` span per sweep and the
    pipeline spans beneath (worker-recorded spans are merged in from
    the parallel engine).  The default ``None`` traces nothing, costs
    (near) nothing, and the optimized network is byte-identical either
    way — tracing never influences control flow.
    """
    tracer = as_tracer(tracer)
    if config.method == "simguided":
        # The simulation-guided engine (same outer contract, opposite
        # candidate-finding strategy).  Imported lazily — repro.resub
        # imports this module for the stats/undo machinery.
        from repro.resub.engine import simguided_substitute

        return simguided_substitute(
            network,
            config,
            reference=reference,
            stats=stats,
            budget=budget,
            tracer=tracer,
        )
    if n_jobs is not None and n_jobs != config.n_jobs:
        config = dataclasses.replace(config, n_jobs=n_jobs)
    if stats is None:
        stats = SubstitutionStats()
    if budget is None:
        budget = RunBudget.from_config(config)
    stats.literals_before += network_literals(network)
    if config.verify_commits and reference is None:
        reference = network.copy("reference")
    start = time.perf_counter()
    sim_filter = None
    if config.enable_sim_filter:
        # Imported lazily: repro.sim.filter imports repro.core.division,
        # so a top-level import here would be circular via
        # repro.core.__init__.
        from repro.sim.filter import DivisorFilter

        sim_filter = DivisorFilter(network, config)
    ledger = None
    if config.verify_commits:
        ledger = CommitLedger(reference, config, stats, sim_filter)
    engine = None
    if config.n_jobs > 1:
        # Lazy for the same circularity reason as the filter above.
        from repro.parallel.engine import SpeculativeEngine

        engine = SpeculativeEngine(config)
    #: The budget may be shared across several runs accumulating into
    #: the same *stats*; charge only this run's ATPG-incomplete delta
    #: (the ledger on the budget is cumulative).
    atpg_incomplete_before = budget.atpg_incomplete if budget else 0
    try:
        with tracer.span(
            "run", circuit=network.name, mode=config.mode,
            jobs=config.n_jobs,
        ) as run_span:
            for index in range(config.max_passes):
                if budget is not None and budget.exhausted():
                    break
                with tracer.span("pass", index=index) as pass_span:
                    store = None
                    if engine is not None:
                        store = engine.precompute(
                            network, sim_filter=sim_filter, tracer=tracer
                        )
                    try:
                        accepted = substitute_pass(
                            network,
                            config,
                            stats,
                            sim_filter=sim_filter,
                            store=store,
                            budget=budget,
                            ledger=ledger,
                            tracer=tracer,
                        )
                    finally:
                        if engine is not None and store is not None:
                            engine.finish_pass(store)
                    pass_span.annotate(accepted=accepted)
                if accepted == 0:
                    break
            network.sweep_dangling()
            run_span.annotate(accepted=stats.accepted)
    finally:
        # The engine owns OS resources (worker processes, a shared
        # memory segment); close unconditionally so a budget stop or
        # an engine error can never leak them.
        if engine is not None:
            engine.close()
    if sim_filter is not None:
        # Pick up nodes dropped by the sweep, then fold the filter's
        # counters into the run statistics.  Accumulate — *stats* may
        # already carry counts from a previous run.
        sim_filter.note_mutation([])
        stats.sim_cache_hits += sim_filter.cache_hits
        stats.sim_cache_misses += sim_filter.cache_misses
        stats.resim_nodes += sim_filter.sim.nodes_resimulated
    if engine is not None:
        engine.collect()
        stats.parallel_jobs = max(stats.parallel_jobs, engine.jobs)
        stats.parallel_batches += engine.batches
        stats.parallel_pairs_evaluated += engine.pairs_evaluated
        stats.parallel_pairs_reused += engine.reused
        stats.parallel_pairs_invalidated += engine.invalidated
        stats.worker_faults += engine.worker_faults
        stats.shards_redispatched += engine.shards_redispatched
        stats.degraded_to_serial += engine.degraded_to_serial
        stats.stalls_detected += engine.stalls
        stats.parallel_deltas_shipped += engine.deltas_shipped
        stats.parallel_delta_nodes += engine.delta_nodes
        stats.parallel_pairs_stale_skipped += engine.pairs_stale_skipped
        stats.parallel_snapshot_bytes += engine.snapshot_bytes
        stats.parallel_batch_bytes += engine.batch_bytes
        for phase, seconds in engine.phase_seconds.items():
            stats.parallel_phase_seconds[phase] = (
                stats.parallel_phase_seconds.get(phase, 0.0) + seconds
            )
    if budget is not None:
        stats.atpg_incomplete += (
            budget.atpg_incomplete - atpg_incomplete_before
        )
        stats.budget_report = budget.report()
    stats.cpu_seconds += time.perf_counter() - start
    stats.literals_after += network_literals(network)
    return stats
