"""Network-level Boolean substitution: the run loop of both engines.

:func:`substitute_network` runs passes to a fixpoint (the paper's "one
run", Section V).  Each pass is one sweep of the engine that
``config.method`` picks: the division passes (:func:`substitute_pass`)
in the paper's three experimental configurations (basic / ext / ext
GDC), or simulation-guided resubstitution
(:func:`repro.resub.engine.resub_pass`).  Matching the paper's
implementation, acceptance is *locally greedy*: the first division
with a positive factored-literal gain is taken (Section V notes this
is why ext-GDC can occasionally lose to ext).

Both engines share the stats, the budget, the run's signatures, the
spans, and one undo of a rewrite (:class:`_Snapshot`), which keeps the
signatures current.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.network.factor import factored_literals, network_literals
from repro.network.network import Network
from repro.core.config import DivisionConfig
from repro.core.division import (
    MAX_REGION_CUBES,
    apply_division,
    boolean_divide,
    build_analysis_circuit,
    divide_node_pair,
    enabled_attempts,
)
from repro.core.extended import (
    build_vote_table,
    choose_core_divisor,
    core_prefix,
    decompose_divisor,
    decompose_divisor_pos,
)
from repro.obs.tracer import NULL_TRACER, as_tracer
from repro.resilience.budget import BudgetExhausted, BudgetReport, RunBudget
from repro.resilience.checkpoint import CommitLedger

#: Substitution sweeps per run at most; a run stops earlier at the
#: first sweep that commits nothing.
MAX_PASSES = 3

#: Division candidates considered per dividend (closest supports
#: first); keeps the pass near-linear on large networks.
MAX_CANDIDATE_DIVISORS = 25

#: The run's signatures: random input patterns packed per signal, and
#: the seed of the per-PI stimulus (deterministic per PI name, so
#: incremental and from-scratch simulation agree).
SIM_PATTERNS = 256
SIM_SEED = 1


@dataclasses.dataclass
class SubstitutionStats:
    """Bookkeeping for one :func:`substitute_network` run."""

    attempts: int = 0
    #: Division attempts skipped because the run's
    #: :class:`AttemptMemo` holds a failure on exactly what they read
    #: (basic pairs and extended votes alike).  A skip counts here and
    #: not in ``attempts``; it makes no divide call.  Deterministic,
    #: like ``attempts``.
    attempts_memoized: int = 0
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
    #: Implication tests a sampled pattern settled without an ``imply``
    #: run (:mod:`repro.sim.witness`): removal, clean and vote tests
    #: alike.  Deterministic, like ``divide_calls``.
    tests_witnessed: int = 0
    #: Commit proofs run / rolled back, and pairs quarantined, under
    #: ``config.verify_commits`` (division engine only).
    commits_verified: int = 0
    commits_rolled_back: int = 0
    pairs_quarantined: int = 0
    #: SAT-backend work done by the run's exact checks (the commit
    #: ledger's proofs and simguided validation, through
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
    #: Structured incident records (JSON-ready dicts) — one per
    #: rolled-back commit; surfaces through ``--stats-json``.
    incidents: List[Dict[str, object]] = dataclasses.field(
        default_factory=list
    )
    #: Budget summary when the run carried a
    #: :class:`~repro.resilience.budget.RunBudget` (else ``None``).
    budget_report: Optional[BudgetReport] = None

    def add_solver_work(self, verdict) -> None:
        """Count one exact verdict's SAT solve (an enumeration verdict
        adds nothing)."""
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


def _candidate_divisors(network: Network, f_name: str) -> List[str]:
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
    return [name for _, _, _, name in scored[:MAX_CANDIDATE_DIVISORS]]


class _Snapshot:
    """The undo of one rewrite of a handful of nodes, which keeps the
    run's signatures current.

    *sim* is the run's
    :class:`~repro.sim.signature.SignatureSimulator`, or ``None`` when
    the run keeps no signatures.  :meth:`refresh` re-simulates the
    snapshotted and the created nodes after the rewrite, and
    :meth:`restore` undoes the rewrite and refreshes them again.
    """

    def __init__(self, network: Network, names: Sequence[str], sim):
        self.network = network
        self.sim = sim
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

    def refresh(self) -> None:
        if self.sim is not None:
            self.sim.refresh([*self.saved, *self.created])

    def restore(self) -> None:
        for name, (fanins, cover) in self.saved.items():
            self.network.nodes[name].set_function(fanins, cover)
        for name in self.created:
            if name in self.network.nodes:
                fanouts = self.network.fanouts()[name]
                if not fanouts and name not in self.network.pos:
                    self.network.remove_node(name)
        self.refresh()


def _keep(
    snapshot: _Snapshot, ledger, f_name: str, d_name: str, tracer
) -> bool:
    """Whether the rewrite just applied under *snapshot* stays.

    Without a *ledger* it does.  With one, it stays only when the
    ledger proves it; otherwise it is undone and the pair quarantined.
    """
    if ledger is None or ledger.verify_commit(
        snapshot.network, f_name, d_name, tracer
    ):
        return True
    snapshot.restore()
    ledger.quarantine(f_name, d_name)
    return False


#: A node's division-relevant state: its fanin names plus its
#: (immutable) cover.  Without global don't cares a basic division's
#: outcome is a pure function of the dividend's and the divisor's
#: states, so two equal states mean an unchanged outcome: the attempt
#: memo's key.
NodeState = Tuple[Tuple[str, ...], object]


def node_state(network: Network, name: str) -> Optional[NodeState]:
    """*name*'s :data:`NodeState`, or ``None`` when it is gone."""
    node = network.nodes.get(name)
    if node is None:
        return None
    return (tuple(node.fanins), node.cover)


class AttemptMemo:
    """The failed division attempts of one :func:`substitute_network`
    run, keyed on everything each attempt reads (DESIGN §16).

    * A basic pair reads the dividend's and the divisor's
      :data:`NodeState`: ``(f, state(f), d, state(d))``.  The signature
      filter's viable variants are not part of the key, because the
      variants it drops would return ``None`` anyway.
    * An extended vote reads its form, the dividend's state and the
      state of every pooled divisor (after the POS pre-filter).
    * With ``global_dc`` an attempt reads every node outside TFO(f),
      and with ``oracle_dc`` the whole network.  Those keys also carry
      the number of rewrites committed so far in the run: a failed
      attempt or a rollback restores the network exactly, so an
      unchanged count means an unchanged network.

    A failed core extraction has already taken a fresh name for its
    rolled-back core node, which advances the network's name counter
    for good.  Its entry keeps that name prefix, and :meth:`skip`
    takes one fresh name again, exactly as the skipped attempt would
    have, so later core nodes keep their names.
    """

    def __init__(
        self,
        network: Network,
        config: DivisionConfig,
        stats: SubstitutionStats,
    ):
        self.network = network
        self.stats = stats
        self._whole_network = config.global_dc or config.oracle_dc
        #: Failed key -> the fresh-name prefix its attempt consumed.
        self._failed: Dict[tuple, Optional[str]] = {}

    def _commits(self) -> Optional[int]:
        # Absolute, not per run: it only grows while this memo lives.
        return self.stats.accepted if self._whole_network else None

    def pair_key(self, f_name: str, d_name: str) -> tuple:
        network = self.network
        return (
            f_name,
            node_state(network, f_name),
            d_name,
            node_state(network, d_name),
            self._commits(),
        )

    def extended_key(
        self, form: str, f_name: str, divisors: Sequence[str]
    ) -> tuple:
        network = self.network
        return (
            form,
            f_name,
            node_state(network, f_name),
            tuple((d, node_state(network, d)) for d in divisors),
            self._commits(),
        )

    def skip(self, key: tuple) -> bool:
        """True when *key* has failed before.  The hit is counted, and
        a failed core extraction's fresh name is taken again."""
        if key not in self._failed:
            return False
        prefix = self._failed[key]
        if prefix is not None:
            self.network.fresh_name(prefix)
        self.stats.attempts_memoized += 1
        return True

    def record(self, key: tuple, name_prefix: Optional[str] = None) -> None:
        """Remember a failure that left the network as it was, apart
        from the fresh name taken with *name_prefix*, if any."""
        self._failed[key] = name_prefix


def _try_extended(
    network: Network,
    f_name: str,
    divisors: List[str],
    config: DivisionConfig,
    stats: SubstitutionStats,
    memo: AttemptMemo,
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

    An attempt whose key (see :class:`AttemptMemo`) has failed before
    is skipped; every failure that leaves the network as it was is
    recorded in *memo*.  A rolled-back commit is not: its pair is
    quarantined, and the next vote records the quarantined choice.
    """
    if form == "pos":
        from repro.twolevel.complement import complement as _complement

        f_cover = network.nodes[f_name].cover
        dual = _complement(f_cover)
        if dual.num_cubes() > min(
            MAX_REGION_CUBES, 2 * f_cover.num_cubes() + 4
        ):
            return False
        divisors = [
            d
            for d in divisors
            if _complement(network.nodes[d].cover).num_cubes() <= 8
        ]
        if not divisors:
            return False
    key = memo.extended_key(form, f_name, divisors)
    if memo.skip(key):
        return False
    sim = None if sim_filter is None else sim_filter.sim
    screen = None if sim_filter is None else sim_filter.screen
    with tracer.span("vote", f=f_name, form=form) as vote_span:
        table = build_vote_table(
            network, f_name, divisors, config, form=form, screen=screen
        )
        choice = choose_core_divisor(table, config)
        vote_span.annotate(
            wires=len(table.entries),
            candidates=sum(1 for entry in table.entries if entry.candidates),
            witnessed=table.witnessed,
        )
    if choice is None:
        memo.record(key)
        return False
    d_name = choice.divisor_name
    if ledger is not None and ledger.is_quarantined(f_name, d_name):
        memo.record(key)
        return False
    d_node = network.nodes[d_name]
    whole = len(choice.cube_indices) == len(
        table.divisor_cubes[d_name].cubes
    )

    stats.attempts += 1
    if whole and form == "pos":
        # Whole-divisor POS division is already tried by the basic
        # per-divisor loop; only the decomposition case is new here.
        memo.record(key)
        return False
    if whole:
        result = boolean_divide(
            network, f_name, d_name, config, form=form, budget=budget,
            tracer=tracer, screen=screen, stats=stats,
        )
        if result is None or result.gain <= 0:
            memo.record(key)
            return False
        with tracer.span(
            "commit", f=f_name, d=d_name, via="extended-whole"
        ) as commit_span:
            snapshot = _Snapshot(network, [f_name], sim)
            apply_division(network, result)
            snapshot.refresh()
            if not _keep(snapshot, ledger, f_name, d_name, tracer):
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
    snapshot = _Snapshot(network, [f_name, d_name], sim)
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
        # The signatures are not refreshed before this division: the
        # divisor kept its function, and the screen evaluates the core
        # node, which the simulator has not seen, from its fanins.
        result = boolean_divide(
            network, f_name, core_name, config, form=form, budget=budget,
            tracer=tracer, screen=screen, stats=stats,
        )
    except BudgetExhausted:
        # The divisor is already decomposed; undo before unwinding so
        # the budget stop leaves the network in a committed state.
        snapshot.restore()
        raise
    if result is None:
        snapshot.restore()
        memo.record(key, core_prefix(d_name))
        return False
    with tracer.span(
        "commit", f=f_name, d=d_name, via="extended-core"
    ) as commit_span:
        apply_division(network, result)
        snapshot.refresh()
        after_total = (
            factored_literals(network.nodes[f_name].cover)
            + factored_literals(network.nodes[d_name].cover)
            + factored_literals(network.nodes[core_name].cover)
        )
        if after_total >= before_total:
            snapshot.restore()
            memo.record(key, core_prefix(d_name))
            commit_span.annotate(accepted=False)
            return False
        if not _keep(snapshot, ledger, f_name, d_name, tracer):
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
    budget=None,
    ledger=None,
    tracer=None,
    memo: Optional[AttemptMemo] = None,
) -> int:
    """One sweep over all nodes; returns accepted substitutions.

    *sim_filter* is an optional :class:`~repro.sim.filter.DivisorFilter`
    over *network* whose signatures are current; candidate (divisor,
    variant) attempts it refutes are skipped.  Because the filter is
    sound, the pass produces the same network with or without it.

    *budget* is an optional
    :class:`~repro.resilience.budget.RunBudget`, checked before every
    candidate pair and inside the removal loop; when it trips the pass
    stops cleanly between commits and returns what it accepted so far.
    *ledger* is an optional
    :class:`~repro.resilience.checkpoint.CommitLedger`: every accepted
    rewrite is proven against the last proven state of the network,
    rolled back unless proven, and the pair quarantined for the rest
    of the run.

    *tracer* is an optional :class:`~repro.obs.tracer.Tracer`; the
    pass records ``enumerate``/``pair``/``divide``/``atpg``/``commit``/
    ``verify`` spans under the caller's ``pass`` span.  ``None``
    traces nothing and costs nothing.

    *memo* is the run's :class:`AttemptMemo` over *network* and
    *stats*; :func:`substitute_network` passes one memo to every pass,
    so an attempt that failed in an earlier pass on the same node
    states is skipped (counted in ``stats.attempts_memoized``).  The
    memo only skips attempts whose outcome it knows, so the pass
    result is byte-identical either way.  ``None`` gives the pass a
    memo of its own.
    """
    if stats is None:
        stats = SubstitutionStats()
    if memo is None:
        memo = AttemptMemo(network, config, stats)
    accepted_before = stats.accepted
    try:
        _run_pass(
            network, config, stats, sim_filter, budget, ledger,
            as_tracer(tracer), memo,
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
    budget,
    ledger,
    tracer,
    memo: AttemptMemo,
) -> None:
    """The body of :func:`substitute_pass`: basic pairs per dividend,
    then the extended votes (SOP, and POS as a second phase).

    Each basic pair goes quarantine check, signature filter, memo,
    divide, commit.  The memo is consulted after the filter's prune
    accounting, so ``divisors_pruned`` and ``variants_pruned`` count
    exactly as without it.  A pair whose result is ``None`` is
    recorded as failed.
    """
    n_enabled = len(enabled_attempts(config))
    sim = None if sim_filter is None else sim_filter.sim
    screen = None if sim_filter is None else sim_filter.screen
    names = [node.name for node in network.internal_nodes()]
    for f_name in names:
        if f_name not in network.nodes:
            continue
        node = network.nodes[f_name]
        if node.is_pi or node.is_constant() or node.cover is None:
            continue
        with tracer.span("enumerate", f=f_name) as enum_span:
            divisors = _candidate_divisors(network, f_name)
            enum_span.annotate(divisors=len(divisors))
        if not divisors:
            continue

        # Basic attempts per divisor first (this is the whole story in
        # basic mode; in extended mode it takes the cheap wins so the
        # decomposition step below only fires where basic failed).
        # In GDC mode the analysis circuit covers the whole network
        # minus TFO(f) and is divisor-independent, so it is built once
        # per dividend (rewrites of f itself never change its gates —
        # f's own gates are excluded by construction).  It is built
        # lazily: when the filter, the memo or the witness screen
        # settles every test of this dividend, nothing needs it.
        shared_circuit = None

        def _gdc_circuit(f_name=f_name):
            nonlocal shared_circuit
            if shared_circuit is None:
                shared_circuit = build_analysis_circuit(
                    network, f_name, [], config
                )
            return shared_circuit

        base_circuit = _gdc_circuit if config.global_dc else None

        for d_name in divisors:
            if d_name not in network.nodes:
                continue
            if budget is not None:
                budget.check()
            if ledger is not None and ledger.is_quarantined(
                f_name, d_name
            ):
                continue
            with tracer.span("pair", f=f_name, d=d_name) as pair_span:
                attempts = None
                if sim_filter is not None:
                    # Pruning is evaluated against the *current*
                    # network state, so a skip is a proof
                    # divide_node_pair would return None right now —
                    # never a changed outcome.
                    attempts = sim_filter.viable_attempts(f_name, d_name)
                    if not attempts:
                        stats.divisors_pruned += 1
                        pair_span.annotate(pruned=True)
                        continue
                    stats.variants_pruned += n_enabled - len(attempts)
                calls = n_enabled if attempts is None else len(attempts)
                key = memo.pair_key(f_name, d_name)
                if memo.skip(key):
                    pair_span.annotate(memo=True)
                    continue
                stats.attempts += 1
                stats.divide_calls += calls
                result = divide_node_pair(
                    network,
                    f_name,
                    d_name,
                    config,
                    base_circuit=base_circuit,
                    attempts=attempts,
                    budget=budget,
                    tracer=tracer,
                    screen=screen,
                    stats=stats,
                )
                if result is None:
                    memo.record(key)
                    pair_span.annotate(accepted=False)
                    continue
                if base_circuit is not None:
                    # A commit can reorder network.topo_order(), which
                    # fixes the circuit's gate order: a division whose
                    # tests were all witnessed must not leave the build
                    # to a later pair.
                    base_circuit()
                with tracer.span(
                    "commit", f=f_name, d=d_name, via="basic"
                ) as commit_span:
                    snapshot = _Snapshot(network, [f_name], sim)
                    apply_division(network, result)
                    snapshot.refresh()
                    if not _keep(snapshot, ledger, f_name, d_name, tracer):
                        commit_span.annotate(accepted=False)
                        continue
                    stats.accepted += 1
                    stats.wires_removed += result.wires_removed
                    stats.cubes_removed += result.cubes_removed
                    commit_span.annotate(
                        accepted=True, gain=result.gain
                    )
                    pair_span.annotate(accepted=True)

        if config.mode == "extended":
            # Extended division over the pooled candidates; repeat while
            # it keeps paying (f shrinks each time).  The pool is *not*
            # signature-pruned: with regional implications the pooled
            # divisors' gates feed the shared analysis circuit, so
            # dropping one would weaken implications for the others.
            for _ in range(4):
                if budget is not None:
                    budget.check()
                divisors = _candidate_divisors(network, f_name)
                if not divisors or not _try_extended(
                    network,
                    f_name,
                    divisors,
                    config,
                    stats,
                    memo,
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
                divisors = _candidate_divisors(network, f_name)
                if not divisors or not _try_extended(
                    network,
                    f_name,
                    divisors,
                    config,
                    stats,
                    memo,
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
    stats: Optional[SubstitutionStats] = None,
    budget=None,
    tracer=None,
) -> SubstitutionStats:
    """Run substitution passes to a fixpoint (the paper's "one run").

    Each pass is one sweep of the engine ``config.method`` picks:
    :func:`substitute_pass` for division, or
    :func:`~repro.resub.engine.resub_pass` for simguided.  Returns the
    statistics, including factored-literal counts before and after and
    the wall-clock time spent.  Passing an existing *stats* object
    accumulates into it — every counter (including the sim-filter
    cache/resim counters and the literal totals) is *added*, never
    overwritten, so multi-run flows can aggregate one ledger across
    calls.

    *budget* is an optional
    :class:`~repro.resilience.budget.RunBudget` shared with the caller
    (e.g. across a multi-network flow); when it is ``None`` one is
    built from ``config.deadline_seconds``, if set.  A tripped budget
    stops the run cleanly with the best-so-far network and a
    :class:`~repro.resilience.budget.BudgetReport` in
    ``stats.budget_report``.

    A run that proves its rewrites keeps a pre-run copy of the
    network: simguided proves every candidate against it.  With
    ``config.verify_commits`` the division engine proves every
    accepted rewrite against the last proven state (at first that
    copy), rolls it back unless proven, and quarantines the offending
    pair (incidents land in ``stats.incidents``).

    *tracer* is an optional :class:`~repro.obs.tracer.Tracer`; the run
    records a ``run`` span with one ``pass`` span per sweep and the
    pipeline spans beneath.  The default ``None`` traces nothing, costs
    (near) nothing, and the optimized network is byte-identical either
    way — tracing never influences control flow.

    The memos live for one run: the division engine's
    :class:`AttemptMemo` (every pass skips the attempts that already
    failed on the node states they read) and simguided's cleaned
    covers.  Nothing persists across runs.
    """
    tracer = as_tracer(tracer)
    if stats is None:
        stats = SubstitutionStats()
    if budget is None:
        budget = RunBudget.from_config(config)
    stats.literals_before += network_literals(network)
    start = time.perf_counter()
    simguided = config.method == "simguided"
    reference = None
    if simguided or config.verify_commits:
        reference = network.copy("reference")
    sim = screen = sim_filter = None
    if simguided or config.enable_sim_filter:
        # Imported lazily: repro.sim.filter imports repro.core.division,
        # so a top-level import here would be circular via
        # repro.core.__init__.
        from repro.sim.filter import DivisorFilter
        from repro.sim.signature import SignatureSimulator
        from repro.sim.witness import WitnessScreen

        sim = SignatureSimulator(
            network, patterns=SIM_PATTERNS, seed=SIM_SEED
        )
        if simguided:
            screen = WitnessScreen(sim)
        else:
            sim_filter = DivisorFilter(sim, config)
            screen = sim_filter.screen
    if simguided:
        # Imported lazily: repro.resub imports this module.
        from repro.resub.engine import resub_pass

        sweep = functools.partial(
            resub_pass, network, reference, config, stats,
            sim=sim, screen=screen, clean_memo={}, budget=budget,
            tracer=tracer,
        )
        run_attrs = {"method": "simguided"}
    else:
        ledger = None
        if config.verify_commits:
            ledger = CommitLedger(reference, config, stats)
        sweep = functools.partial(
            substitute_pass, network, config, stats,
            sim_filter=sim_filter, budget=budget, ledger=ledger,
            tracer=tracer, memo=AttemptMemo(network, config, stats),
        )
        run_attrs = {}
    with tracer.span(
        "run", circuit=network.name, mode=config.mode, **run_attrs
    ) as run_span:
        for index in range(MAX_PASSES):
            if budget is not None and budget.exhausted():
                break
            with tracer.span("pass", index=index) as pass_span:
                accepted = sweep()
                pass_span.annotate(accepted=accepted)
            if accepted == 0:
                break
        network.sweep_dangling()
        run_span.annotate(accepted=stats.accepted)
    # Fold the signature counters into the run statistics.  Accumulate
    # — *stats* may already carry counts from a previous run.
    if sim is not None:
        stats.resim_nodes += sim.nodes_resimulated
        stats.tests_witnessed += screen.tests_witnessed
    if sim_filter is not None:
        stats.sim_cache_hits += sim_filter.cache_hits
        stats.sim_cache_misses += sim_filter.cache_misses
    if budget is not None:
        stats.budget_report = budget.report()
    stats.cpu_seconds += time.perf_counter() - start
    stats.literals_after += network_literals(network)
    return stats
