"""The simulation-guided resubstitution pass.

With ``DivisionConfig.method = "simguided"``, each pass of
:func:`~repro.core.substitution.substitute_network`'s run loop is one
:func:`resub_pass`.  The loop is the division engine's: greedy
first-win acceptance, sweeps to a fixpoint, `RunBudget` clean stops,
tracer spans, one
:class:`~repro.core.substitution.SubstitutionStats`, the run's
signatures and the snapshot undo of a rewrite.  The pass finds its
rewrites the opposite way.  Division *searches* for a divisor
whose implication structure proves a rewrite; simulation-guided
resubstitution *constructs* a candidate function for each target
directly from signatures and then proves it:

1. **Window** (``resub_window`` span): rank the structurally legal
   divisors for the target (:mod:`repro.resub.window`).
2. **Resynthesize** (``resub_resyn`` span): walk the divisor subsets
   smallest-first, skip those whose care patterns conflict, and build
   a cover matching the target's signature on every care pattern for
   the rest (:mod:`repro.resub.resyn`); the care set
   (``resub_care`` span) is the simulated patterns minus those under
   which the target is exactly unobservable, when the network is small
   enough.  Satisfiability don't cares need no handling at all —
   unreachable fanin combinations never occur in simulation.
3. **Clean**: excitation-only ATPG redundancy removal on the candidate
   cover — a literal (cube) whose stuck-at fault cannot even be
   excited given the divisors' logic is dropped.  Untestable faults
   leave every PO function unchanged, so this is sound.
4. **Validate** (``resub_validate`` span): the candidate only agreed
   with the target on sampled patterns, which proves nothing, so every
   survivor is checked *exactly* against the pre-run reference through
   :func:`~repro.network.verify.checked_equivalent`.
   A SAT don't-know (exhausted conflict budget) **rejects** the
   candidate: a simguided candidate has no proof behind it except
   this check, so an unknown keeps the old node.

Because every accepted commit is exactly equivalent to the pre-run
reference, the final network is exactly equivalent to the input by
construction — the property the cross-engine differential suite
(``tests/resub/``) locks in.  The run loop therefore builds no
:class:`~repro.resilience.checkpoint.CommitLedger` for this engine:
every commit is already proven, and ``DivisionConfig.verify_commits``
changes nothing here.

The pass revisits the same small problems constantly (every pass,
every target with a similar window), so four results are reused
rather than recomputed, each keyed on everything it reads and hence
byte-identical to a fresh computation: espresso covers by truth table
(process-wide, in :mod:`repro.resub.resyn`), the mixed classes of each
subset prefix, which the subset walk splits by one more divisor
(per target, in :func:`~repro.resub.resyn.conflict_free_subsets`),
cleaned covers by target, cover and divisor states (one dict per run,
only without ``global_dc``), and the observability test, which runs
only at the fanin minterms the samples reach
(:meth:`~repro.network.dontcares.DontCareComputer.unobservable_patterns`).
A clean whose every test has a witness is settled from the cover's
packed values without building the remover
(:meth:`~repro.sim.witness.WitnessScreen.clean_tests`).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

from repro.core.config import DivisionConfig
from repro.core.division import (
    MAX_REGION_CUBES,
    RegionRemover,
    build_analysis_circuit,
)
from repro.core.substitution import SubstitutionStats, _Snapshot
from repro.network.dontcares import DontCareComputer
from repro.network.factor import factored_literals
from repro.network.network import Network
from repro.network.verify import checked_equivalent
from repro.resilience.budget import BudgetExhausted
from repro.resub.resyn import conflict_free_subsets, resynthesize_window
from repro.resub.window import build_window, pi_supports
from repro.sim.signature import SignatureSimulator
from repro.sim.witness import WitnessScreen
from repro.twolevel.cover import Cover

#: Divisors per resynthesized replacement function at most: subsets of
#: the window are walked smallest first, so the engine prefers the
#: smallest support that works.
MAX_SUBSET_DIVISORS = 4

#: PI count up to which the care mask leaves out the patterns under
#: which the target is exactly unobservable (the BDD-based computer is
#: global and rebuilt after every commit; beyond this it costs more
#: than the don't cares buy).
ODC_MAX_PIS = 12


def _divisor_label(divisors: Sequence[str]) -> str:
    """A divisor subset as one stable label: the ``d=`` of a resub
    ``commit`` span, the counterpart of a division commit's divisor."""
    return "resub(" + ",".join(divisors) + ")"


def _clean_cover(
    network: Network,
    f_name: str,
    divisors: Sequence[str],
    cover: Cover,
    config: DivisionConfig,
    budget,
    memo: Optional[Dict[tuple, Tuple[Cover, int]]] = None,
    screen: Optional[WitnessScreen] = None,
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

    *memo* (one dict per run) keeps results across calls.  Without
    ``global_dc`` the analysis circuit holds only the divisors' gates,
    so the result is a function of the target's name, the cover and
    each divisor's ``(name, fanins, cover)``, which is the key.  With
    ``global_dc`` the circuit reads the whole network outside TFO(f),
    and nothing is memoized.

    *screen* (a :class:`~repro.sim.witness.WitnessScreen` over the
    run's current signatures) settles the tests a sampled pattern
    meets without an implication run.  When it settles every test of
    the clean, the cover comes back unchanged without a remover;
    otherwise the analysis circuit is built only for a test it leaves
    open.
    """
    if not divisors or cover.is_zero():
        return cover, 0
    if cover.num_cubes() > MAX_REGION_CUBES:
        return cover, 0
    if all(network.nodes[d].is_pi for d in divisors):
        # Over free PIs a test conflicts only where the cover itself is
        # redundant: ``a b + a b'`` would clean to ``a``.  The engine's
        # covers come from espresso, prime and irredundant over
        # on ∪ dc, so a removable literal or cube would contradict
        # primality or irredundancy: nothing is removed, and the
        # circuit is not built.
        return cover, 0
    key = None
    if memo is not None and not config.global_dc:
        key = (
            f_name,
            cover,
            tuple(
                (d, tuple(network.nodes[d].fanins), network.nodes[d].cover)
                for d in divisors
            ),
        )
        hit = memo.get(key)
        if hit is not None:
            return hit
    settled = screen.clean_tests(cover, divisors) if screen is not None else 0
    if settled:
        # Every test has a witness: none conflicts, nothing is removed.
        screen.tests_witnessed += settled
        result = (cover, 0)
    else:
        remover = RegionRemover(
            lambda: build_analysis_circuit(
                network, f_name, list(divisors), config
            ),
            f_name=f_name,
            shared=list(divisors),
            region=dict(enumerate(cover.cubes)),
            remainder={},
            divisor_assignment=None,
            config=config,
            budget=budget,
            screen=screen,
        )
        remover.run()
        cleaned = Cover(
            len(divisors),
            tuple(remover.region[i] for i in sorted(remover.region)),
        )
        result = (cleaned, remover.wires_removed + remover.cubes_removed)
    if key is not None:
        memo[key] = result
    return result


def _care_mask(
    sim: SignatureSimulator, node, dc_computer: Optional[DontCareComputer]
) -> int:
    """Sampled patterns on which the target's value is observable."""
    care = sim.mask
    if dc_computer is None:
        return care
    fanin_sigs = [sim.signatures[f] for f in node.fanins]
    return care & ~dc_computer.unobservable_patterns(
        node.name, fanin_sigs, care
    )


def resub_pass(
    network: Network,
    reference: Network,
    config: DivisionConfig,
    stats: SubstitutionStats,
    sim: SignatureSimulator,
    screen: WitnessScreen,
    clean_memo: Dict[tuple, Tuple[Cover, int]],
    budget,
    tracer,
) -> int:
    """One simguided sweep over all nodes; returns the commits.

    *reference* is the pre-run network every candidate is proven
    against.  *sim* holds the run's signatures and *screen* the witness
    screen over them; *clean_memo* is the run's memo of cleaned covers
    (see :func:`_clean_cover`).  A tripped *budget* stops the sweep
    cleanly between commits.
    """
    accepted_before = stats.accepted
    use_dc = len(network.pis) <= ODC_MAX_PIS
    # Per-pass ranking maps; recomputed after every commit (a rewrite
    # changes supports downstream).  The correctness-critical exclusion
    # (no divisor from TFO(f)) is computed fresh inside build_window.
    topo_index = {n: i for i, n in enumerate(network.topo_order())}
    supports = pi_supports(network)
    # The ODC computer is exact-global and only valid for an unchanged
    # network: built lazily, dropped on every commit.
    dc_computer: Optional[DontCareComputer] = None
    names = [node.name for node in network.internal_nodes()]
    try:
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
                    network, f_name, topo_index=topo_index, supports=supports
                )
                win_span.annotate(divisors=len(window.divisors))
            if window.divisors:
                stats.resub_windows += 1
            care = sim.mask
            if use_dc:
                with tracer.span("resub_care", f=f_name):
                    if dc_computer is None:
                        dc_computer = DontCareComputer(
                            network, max_pis=ODC_MAX_PIS
                        )
                    care = _care_mask(sim, node, dc_computer)
            target_sig = sim.signatures[f_name]
            old_lits = factored_literals(node.cover)
            committed = False
            with tracer.span("resub_resyn", f=f_name) as resyn_span:
                top = min(MAX_SUBSET_DIVISORS, len(window.divisors))
                # The walk's length, or the commit's position in it.
                subsets_tried = sum(
                    math.comb(len(window.divisors), size)
                    for size in range(top + 1)
                )
                candidates = 0
                divisor_sigs = [sim.signatures[d] for d in window.divisors]
                # Smallest support first: the constant functions (empty
                # subset), then single divisors, and so on — the first
                # strict literal win is taken greedily.  Only the subsets
                # resynthesis does not reject come out of the walk.
                for position, indices in conflict_free_subsets(
                    target_sig, divisor_sigs, sim.mask, care, top
                ):
                    if budget is not None:
                        budget.check()
                    subset = tuple(window.divisors[i] for i in indices)
                    cover = resynthesize_window(
                        target_sig,
                        [divisor_sigs[i] for i in indices],
                        sim.mask,
                        care,
                    )
                    candidates += 1
                    stats.resub_candidates += 1
                    if factored_literals(cover) > old_lits:
                        # The ATPG cleanup below only ever shrinks the
                        # cover a literal at a time; a candidate already
                        # above the target is not worth cleaning.
                        continue
                    cleaned, removed = _clean_cover(
                        network, f_name, subset, cover, config, budget,
                        clean_memo, screen,
                    )
                    stats.resub_wires_cleaned += removed
                    if factored_literals(cleaned) >= old_lits:
                        continue
                    with tracer.span(
                        "commit", f=f_name, d=_divisor_label(subset),
                        via="resub",
                    ) as commit_span:
                        snapshot = _Snapshot(network, [f_name], sim)
                        node.set_function(list(subset), cleaned)
                        snapshot.refresh()
                        verdict = checked_equivalent(
                            reference,
                            network,
                            tracer,
                            kind="resub_validate",
                            stats=stats,
                            pis=len(set(reference.pis) | set(network.pis)),
                        )
                        stats.resub_validated += 1
                        if not verdict.complete:
                            stats.resub_rejected_unknown += 1
                        if not verdict:
                            snapshot.restore()
                            commit_span.annotate(accepted=False)
                            continue
                        stats.accepted += 1
                        stats.resub_accepted += 1
                        commit_span.annotate(accepted=True)
                    committed = True
                    subsets_tried = position
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
    except BudgetExhausted:
        # Clean stop: everything applied so far is proven and stays.
        pass
    return stats.accepted - accepted_before
