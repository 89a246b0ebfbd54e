"""The simulation-guided resubstitution run loop.

``DivisionConfig.method = "simguided"`` routes
:func:`~repro.core.substitution.substitute_network` here.  The engine
keeps the division pipeline's outer contract — greedy first-win
acceptance, ``max_passes`` sweeps to a fixpoint, `RunBudget` clean
stops, `CommitLedger` transactional commits, tracer spans, one
:class:`~repro.core.substitution.SubstitutionStats` ledger — but finds
its rewrites the opposite way.  Division *searches* for a divisor
whose implication structure proves a rewrite; simulation-guided
resubstitution *constructs* a candidate function for each target
directly from signatures and then proves it:

1. **Window** (``resub_window`` span): rank the structurally legal
   divisors for the target (:mod:`repro.resub.window`).
2. **Resynthesize** (``resub_resyn`` span): enumerate divisor subsets
   smallest-first and build a cover matching the target's signature on
   every care pattern (:mod:`repro.resub.resyn`); the care set is the
   simulated patterns minus the target's exact observability don't
   cares when the network is small enough.  Satisfiability don't cares
   need no handling at all — unreachable fanin combinations never
   occur in simulation.
3. **Clean**: excitation-only ATPG redundancy removal on the candidate
   cover — a literal (cube) whose stuck-at fault cannot even be
   excited given the divisors' logic is dropped.  Untestable faults
   leave every PO function unchanged, so this is sound.
4. **Validate** (``resub_validate`` span): the candidate only agreed
   with the target on sampled patterns, which proves nothing, so every
   survivor is checked *exactly* against the pre-run reference through
   the ``verify_backend`` dispatch (BDD cones up to
   ``sat_pi_threshold`` PIs, the CNF miter above).  A SAT don't-know
   (exhausted conflict budget) **rejects** the candidate: unlike
   division — whose rewrites carry an a-priori redundancy argument and
   may degrade to a wide random screen — a simguided candidate has no
   proof behind it except this check, so an unknown keeps the old
   node.

Because every accepted commit is exactly equivalent to the pre-run
reference, the final network is exactly equivalent to the input by
construction — the property the cross-engine differential suite
(``tests/resub/``) locks in.
"""

from __future__ import annotations

import itertools
import time
import types
from typing import List, Optional, Sequence, Set, Tuple

from repro.core.config import DivisionConfig
from repro.core.division import RegionRemover, build_analysis_circuit
from repro.core.substitution import SubstitutionStats, _Snapshot
from repro.network.dontcares import DontCareComputer
from repro.network.factor import factored_literals, network_literals
from repro.network.network import Network, eval_cover_packed
from repro.network.verify import networks_equivalent
from repro.obs.tracer import NULL_TRACER, as_tracer
from repro.resilience.budget import BudgetExhausted, RunBudget
from repro.resilience.checkpoint import CommitLedger
from repro.resub.resyn import resynthesize_window
from repro.resub.window import build_window, pi_supports
from repro.sim.signature import SignatureSimulator
from repro.twolevel.cover import Cover


def _divisor_label(divisors: Sequence[str]) -> str:
    """Ledger/quarantine key for a divisor subset.

    The CommitLedger keys on ``(dividend, divisor)`` pairs; a resub
    commit's "divisor" is the whole subset, collapsed into one stable
    label so quarantine bars exactly the failing combination.
    """
    return "resub(" + ",".join(divisors) + ")"


def _clean_cover(
    network: Network,
    f_name: str,
    divisors: Sequence[str],
    cover: Cover,
    config: DivisionConfig,
    budget,
) -> Tuple[Cover, int]:
    """ATPG-clean a candidate cover; returns (cover, removals).

    Excitation-only redundancy removal: the division engine's
    :class:`~repro.core.division.RegionRemover` tests faults under the
    full division context (divisor phase, remainder cubes), but here
    the candidate *is* the whole function, so the mandatory
    assignments are just the excitation-and-local-propagation
    conditions at the target's OR: the faulty cube's surviving
    literals at their phases, every other cube at 0, and — for a
    literal stuck-at-1 — the dropped literal's divisor at the opposite
    phase.  A conflict, propagated through the divisors' gates, proves
    the fault untestable at the target and therefore at every PO:
    removal is sound regardless of what the exact validation later
    decides.
    """
    if not divisors or cover.is_zero():
        return cover, 0
    if cover.num_cubes() > config.max_region_cubes:
        return cover, 0
    if all(network.nodes[d].is_pi for d in divisors):
        # Free PIs admit no implications, so no conflict can ever
        # arise; skip building the circuit.
        return cover, 0
    circuit = build_analysis_circuit(network, f_name, list(divisors), config)
    remover = RegionRemover(
        circuit=circuit,
        f_name=f_name,
        shared=list(divisors),
        region=dict(enumerate(cover.cubes)),
        remainder_signals=[],
        divisor_assignment=None,
        config=config,
        budget=budget,
    )
    remover.run()
    cleaned = Cover(
        len(divisors),
        tuple(remover.region[i] for i in sorted(remover.region)),
    )
    return cleaned, remover.wires_removed + remover.cubes_removed


def _validate_exact(
    reference: Network,
    network: Network,
    config: DivisionConfig,
    stats: SubstitutionStats,
    tracer,
) -> Optional[bool]:
    """Exact whole-network check of the just-applied candidate.

    True/False are proofs; ``None`` means the SAT solve exhausted its
    conflict budget (don't-know) — the engine rejects on None.
    """
    n_pis = len(set(reference.pis) | set(network.pis))
    backend = config.verify_backend
    with tracer.span("resub_validate", pis=n_pis) as span:
        if backend == "bdd" or (
            backend == "auto" and n_pis <= config.sat_pi_threshold
        ):
            ok = networks_equivalent(reference, network)
            span.annotate(backend="bdd", ok=ok)
            return ok
        from repro.sat.check import sat_equivalent

        verdict = sat_equivalent(
            reference,
            network,
            conflict_budget=config.sat_conflict_budget,
            tracer=tracer,
        )
        stats.sat_solves += 1
        stats.sat_conflicts += verdict.conflicts
        stats.sat_decisions += verdict.decisions
        stats.sat_propagations += verdict.propagations
        stats.sat_learned += verdict.learned
        if not verdict.complete:
            span.annotate(backend="sat", ok=None)
            return None
        ok = bool(verdict.verdict)
        span.annotate(backend="sat", ok=ok)
        return ok


def _care_mask(
    sim: SignatureSimulator, node, dc_computer: Optional[DontCareComputer]
) -> int:
    """Sampled patterns on which the target's value is observable."""
    care = sim.mask
    if dc_computer is None:
        return care
    odc = dc_computer.observability_dc(node.name)
    if odc.is_zero():
        return care
    fanin_sigs = [sim.signatures[f] for f in node.fanins]
    return care & ~eval_cover_packed(odc, fanin_sigs, sim.mask)


def _resub_pass(
    network: Network,
    reference: Network,
    config: DivisionConfig,
    stats: SubstitutionStats,
    sim: SignatureSimulator,
    budget,
    ledger,
    tracer,
) -> None:
    use_dc = (
        config.resub_use_dontcares
        and len(network.pis) <= config.resub_odc_max_pis
    )
    # Per-pass ranking maps; recomputed after every commit (a rewrite
    # changes supports downstream).  The correctness-critical exclusion
    # (no divisor from TFO(f)) is computed fresh inside build_window.
    topo_index = {n: i for i, n in enumerate(network.topo_order())}
    supports = pi_supports(network)
    # The ODC computer is exact-global and only valid for an unchanged
    # network: built lazily, dropped on every commit.
    dc_computer: Optional[DontCareComputer] = None
    names = [node.name for node in network.internal_nodes()]
    for f_name in names:
        if f_name not in network.nodes:
            continue
        node = network.nodes[f_name]
        if node.is_pi or node.is_constant() or node.cover is None:
            continue
        if budget is not None:
            budget.check()
        stats.resub_targets += 1
        with tracer.span("resub_window", f=f_name) as win_span:
            window = build_window(
                network,
                f_name,
                config,
                topo_index=topo_index,
                supports=supports,
            )
            win_span.annotate(divisors=len(window.divisors))
        if window.divisors:
            stats.resub_windows += 1
        if use_dc and dc_computer is None:
            dc_computer = DontCareComputer(
                network, max_pis=config.resub_odc_max_pis
            )
        care = _care_mask(sim, node, dc_computer)
        target_sig = sim.signatures[f_name]
        old_lits = factored_literals(node.cover)
        committed = False
        with tracer.span("resub_resyn", f=f_name) as resyn_span:
            subsets_tried = 0
            candidates = 0
            # Smallest support first: the constant functions (empty
            # subset), then single divisors, and so on — the first
            # strict literal win is taken greedily.
            for size in range(min(config.resub_max_divisors, len(window.divisors)) + 1):
                if committed:
                    break
                for subset in itertools.combinations(window.divisors, size):
                    if budget is not None:
                        budget.check_deadline()
                    subsets_tried += 1
                    label = _divisor_label(subset)
                    if ledger is not None and ledger.is_quarantined(
                        f_name, label
                    ):
                        continue
                    cover = resynthesize_window(
                        target_sig,
                        [sim.signatures[d] for d in subset],
                        sim.mask,
                        care,
                    )
                    if cover is None:
                        continue
                    candidates += 1
                    stats.resub_candidates += 1
                    if factored_literals(cover) > old_lits:
                        # The ATPG cleanup below only ever shrinks the
                        # cover a literal at a time; a candidate already
                        # above the target is not worth cleaning.
                        continue
                    cleaned, removed = _clean_cover(
                        network, f_name, subset, cover, config, budget
                    )
                    stats.resub_wires_cleaned += removed
                    if factored_literals(cleaned) >= old_lits:
                        continue
                    with tracer.span(
                        "commit", f=f_name, d=label, via="resub"
                    ) as commit_span:
                        snapshot = _Snapshot(network, [f_name])
                        node.set_function(list(subset), cleaned)
                        sim.refresh([f_name])
                        verdict = _validate_exact(
                            reference, network, config, stats, tracer
                        )
                        stats.resub_validated += 1
                        if verdict is None:
                            stats.resub_rejected_unknown += 1
                        if verdict is not True:
                            snapshot.restore()
                            sim.refresh([f_name])
                            commit_span.annotate(accepted=False)
                            continue
                        if ledger is not None and not ledger.verify_commit(
                            network, f_name, label
                        ):
                            snapshot.restore()
                            sim.refresh([f_name])
                            ledger.quarantine(f_name, label)
                            commit_span.annotate(accepted=False)
                            continue
                        stats.accepted += 1
                        stats.resub_accepted += 1
                        commit_span.annotate(accepted=True)
                    committed = True
                    break
            resyn_span.annotate(
                subsets=subsets_tried,
                candidates=candidates,
                accepted=committed,
            )
        if committed:
            dc_computer = None
            topo_index = {n: i for i, n in enumerate(network.topo_order())}
            supports = pi_supports(network)


def simguided_substitute(
    network: Network,
    config: DivisionConfig,
    reference: Optional[Network] = None,
    stats: Optional[SubstitutionStats] = None,
    budget=None,
    tracer=None,
) -> SubstitutionStats:
    """Run simulation-guided resubstitution passes to a fixpoint.

    The drop-in counterpart of the division path of
    :func:`~repro.core.substitution.substitute_network` (which
    delegates here for ``config.method == "simguided"``): same stats
    accumulation contract, same budget clean-stop semantics, same
    transactional-commit machinery under ``config.verify_commits``.
    ``config.n_jobs`` is ignored — the engine is serial; its hot loop
    is the bitwise resynthesis, which parallelizes poorly compared to
    division's independent pair evaluations.
    """
    tracer = as_tracer(tracer)
    if stats is None:
        stats = SubstitutionStats()
    if budget is None:
        budget = RunBudget.from_config(config)
    stats.literals_before += network_literals(network)
    start = time.perf_counter()
    # Exact validation always needs the pre-run network, not just in
    # verify modes: the reference *is* the correctness anchor here.
    if reference is None:
        reference = network.copy("reference")
    sim = SignatureSimulator(
        network, patterns=config.sim_patterns, seed=config.sim_seed
    )
    ledger = None
    if config.verify_commits:
        # The ledger only needs a ``.sim`` attribute from its filter
        # (the prescreen pre-pass); resub has no DivisorFilter.
        ledger = CommitLedger(
            reference, config, types.SimpleNamespace(sim=sim)
        )
    with tracer.span(
        "run", circuit=network.name, mode=config.mode, method="simguided"
    ) as run_span:
        for index in range(config.max_passes):
            if budget is not None and budget.exhausted():
                break
            accepted_before = stats.accepted
            with tracer.span("pass", index=index) as pass_span:
                try:
                    _resub_pass(
                        network, reference, config, stats, sim,
                        budget, ledger, tracer,
                    )
                except BudgetExhausted:
                    # Clean stop between commits; everything applied so
                    # far is validated and stays.
                    pass_span.annotate(
                        accepted=stats.accepted - accepted_before
                    )
                    break
                pass_span.annotate(
                    accepted=stats.accepted - accepted_before
                )
            if stats.accepted == accepted_before:
                break
        network.sweep_dangling()
        run_span.annotate(accepted=stats.accepted)
    stats.resim_nodes += sim.nodes_resimulated
    if ledger is not None:
        stats.commits_verified += ledger.verified
        stats.commits_rolled_back += ledger.rolled_back
        stats.pairs_quarantined += len(ledger.quarantined)
        stats.incidents.extend(ledger.incidents)
        stats.sat_solves += ledger.sat_solves
        stats.sat_conflicts += ledger.sat_conflicts
        stats.sat_decisions += ledger.sat_decisions
        stats.sat_propagations += ledger.sat_propagations
        stats.sat_learned += ledger.sat_learned
    if budget is not None:
        stats.budget_report = budget.report()
    stats.cpu_seconds += time.perf_counter() - start
    stats.literals_after += network_literals(network)
    return stats
