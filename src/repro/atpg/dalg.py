"""Complete test generation by branch-and-propagate on a miter.

The implication-based redundancy check is one-sided: a conflict proves
a fault untestable, but "no conflict" proves nothing.  This module
provides the exact answer for moderate circuits:

1. build a *miter*: the good circuit, a faulty copy (the fault's wire
   replaced by a constant), and an XOR/OR comparator over the chosen
   observables,
2. search for an input assignment that sets the miter output to 1
   with a classical branch-and-bound: propagate direct implications,
   pick an unassigned primary input, branch on both values, backtrack
   on conflict.

This is the same decision procedure as the D-algorithm re-expressed
over a miter (which avoids 5-valued bookkeeping), and it is complete:
``None`` with ``exhausted=False`` never happens — either a test is
returned or the fault is proved untestable (or the backtrack budget
runs out, which is reported explicitly).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Set, Tuple

from repro.circuit.circuit import Circuit
from repro.circuit.gate import Gate, GateKind
from repro.atpg.implication import Conflict, imply
from repro.atpg.fault import StuckAtFault

_GOOD = "g::"
_BAD = "b::"
_DIFF = "miter::diff"


def build_miter(
    circuit: Circuit,
    fault: StuckAtFault,
    observables: Optional[Set[str]] = None,
) -> Circuit:
    """Good and faulty copies sharing PIs, plus an output comparator.

    The miter's output signal is :data:`_DIFF` (exported as
    ``miter_output()``); it is 1 exactly on test vectors for *fault*.
    """
    if observables is None:
        fanouts = circuit.fanouts()
        observables = {
            name for name, outs in fanouts.items() if not outs
        }
    miter = Circuit(f"miter:{fault}")
    for pi in circuit.pis():
        miter.add_pi(pi)

    def clone(prefix: str, faulty: bool) -> None:
        for gate in circuit.gates.values():
            if gate.kind == GateKind.PI:
                continue
            inputs: List[Tuple[str, bool]] = []
            for i, (signal, phase) in enumerate(gate.inputs):
                name = (
                    signal
                    if signal in miter.gates
                    and miter.gates[signal].kind == GateKind.PI
                    else prefix + signal
                )
                if (
                    faulty
                    and gate.name == fault.gate
                    and i == fault.input_index
                ):
                    # Replace the faulty wire by its stuck constant.
                    const = (
                        f"{prefix}const1"
                        if fault.stuck_value
                        else f"{prefix}const0"
                    )
                    if const not in miter.gates:
                        miter.add_gate(
                            Gate(
                                const,
                                GateKind.CONST1
                                if fault.stuck_value
                                else GateKind.CONST0,
                            )
                        )
                    inputs.append((const, True))
                    continue
                inputs.append((name, phase))
            miter.add_gate(Gate(prefix + gate.name, gate.kind, inputs))

    clone(_GOOD, faulty=False)
    clone(_BAD, faulty=True)

    # XOR per observable: g⊕b = (g·b') + (g'·b), then OR them all.
    or_inputs: List[Tuple[str, bool]] = []
    for name in sorted(observables):
        good = _GOOD + name if _GOOD + name in miter.gates else name
        bad = _BAD + name if _BAD + name in miter.gates else name
        if good == bad:
            continue  # observable not driven by logic (a PI): no diff
        t1 = f"miter::{name}.gb"
        t2 = f"miter::{name}.bg"
        x = f"miter::{name}.x"
        miter.add_and(t1, [(good, True), (bad, False)])
        miter.add_and(t2, [(good, False), (bad, True)])
        miter.add_or(x, [(t1, True), (t2, True)])
        or_inputs.append((x, True))
    if or_inputs:
        miter.add_or(_DIFF, or_inputs)
    else:
        miter.add_gate(Gate(_DIFF, GateKind.CONST0))
    return miter


def miter_output() -> str:
    """Name of the miter's difference output signal."""
    return _DIFF


@dataclasses.dataclass
class AtpgResult:
    """Outcome of :func:`generate_test`."""

    #: A test vector (PI name -> value) or ``None``.
    test: Optional[Dict[str, bool]]
    #: True when the search space was fully explored (so ``test is
    #: None`` means *proved untestable*); False when the backtrack
    #: budget ran out first.
    complete: bool
    backtracks: int = 0


def _satisfy(
    circuit: Circuit,
    objective: Tuple[str, bool],
    max_backtracks: int,
    budget=None,
) -> AtpgResult:
    """Find PI values satisfying *objective* by branch-and-propagate.

    *budget* is an optional :class:`~repro.resilience.budget.RunBudget`:
    the per-call backtrack limit is clamped to what the run has left,
    the wall-clock deadline is honoured between branches, and the
    backtracks actually spent (plus any incomplete verdict) are charged
    back to the shared ledger.
    """
    pis = sorted(circuit.pis())
    backtracks = 0
    aborted = False
    limit = max_backtracks
    if budget is not None:
        remaining = budget.backtracks_remaining()
        if remaining is not None:
            limit = min(limit, remaining)

    state = imply(circuit, [objective])
    if state is None:
        return AtpgResult(test=None, complete=True, backtracks=0)
    values = state.values
    pi_ids = [state.compiled.index[pi] for pi in pis]

    def search() -> Optional[Dict[str, bool]]:
        nonlocal backtracks, aborted
        free = [pi for pi in pi_ids if values[pi] is None]
        if not free:
            # Fully assigned: implications have evaluated everything.
            return {pi: values[sid] for pi, sid in zip(pis, pi_ids)}
        pivot = free[0]
        for value in (True, False):
            if backtracks > limit or (
                budget is not None and budget.deadline_passed()
            ):
                aborted = True
                return None
            mark = state.mark()
            try:
                state.assign(pivot, value)
                state.propagate()
            except Conflict:
                state.undo(mark)
                backtracks += 1
                continue
            result = search()
            if result is not None:
                return result
            state.undo(mark)
            backtracks += 1
        return None

    test = search()
    result = AtpgResult(
        test=test,
        complete=not aborted and backtracks <= limit,
        backtracks=backtracks,
    )
    if budget is not None:
        budget.charge_backtracks(backtracks)
        if not result.complete:
            budget.note_atpg_incomplete()
    return result


def generate_test(
    circuit: Circuit,
    fault: StuckAtFault,
    observables: Optional[Set[str]] = None,
    max_backtracks: int = 20000,
    budget=None,
) -> AtpgResult:
    """Complete ATPG for one stuck-at fault.

    Returns a test vector, or (with ``complete=True``) a proof of
    untestability — the exact notion the RAR machinery approximates
    with one-sided implication conflicts.  A shared
    :class:`~repro.resilience.budget.RunBudget` further clamps the
    backtrack limit and is charged for the work done.
    """
    miter = build_miter(circuit, fault, observables)
    return _satisfy(miter, (_DIFF, True), max_backtracks, budget=budget)


def prove_redundant(
    circuit: Circuit,
    fault: StuckAtFault,
    observables: Optional[Set[str]] = None,
    max_backtracks: int = 20000,
    budget=None,
    tracer=None,
) -> Optional[bool]:
    """Exact redundancy: True/False, or ``None`` if the budget ran out.

    ``None`` is a *don't know*: consumers removing wires must treat it
    as "not redundant" (the conservative direction — keeping a
    removable wire is safe, removing a needed one is not).  An enabled
    *tracer* records the search as one ``atpg`` span with the verdict
    and backtrack count.
    """
    from repro.obs.tracer import as_tracer

    with as_tracer(tracer).span(
        "atpg", scope="dalg", gate=fault.gate, input=fault.input_index
    ) as span:
        result = generate_test(
            circuit, fault, observables, max_backtracks, budget=budget
        )
        if result.test is not None:
            verdict: Optional[bool] = False
        else:
            verdict = True if result.complete else None
        span.annotate(
            verdict=verdict,
            complete=result.complete,
            backtracks=result.backtracks,
        )
        return verdict
