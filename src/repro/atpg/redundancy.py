"""Generic redundancy identification and removal for circuits.

This is the classical substrate the paper builds on (Section II): a
wire whose removal-fault is untestable can be deleted without changing
the circuit's function.  The division algorithm in :mod:`repro.core`
constructs its own specialized mandatory-assignment sets; this module
provides the general-purpose version used for plain redundancy removal
and for reproducing the RAR example of Fig. 1.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from repro.circuit.circuit import Circuit
from repro.circuit.gate import Gate, GateKind
from repro.atpg.implication import imply
from repro.atpg.fault import StuckAtFault, all_wire_faults, mandatory_assignments
from repro.obs.tracer import as_tracer


def wire_is_redundant(
    circuit: Circuit,
    fault: StuckAtFault,
    observables: Optional[Set[str]] = None,
    learn_depth: int = 0,
) -> bool:
    """True when the fault's mandatory assignments conflict.

    Sound but incomplete: False only means redundancy was not proven.
    """
    assignments = mandatory_assignments(circuit, fault, observables)
    return imply(circuit, assignments, learn_depth) is None


def wire_is_redundant_exact(
    circuit: Circuit,
    fault: StuckAtFault,
    observables: Optional[Set[str]] = None,
    max_backtracks: int = 20000,
    tracer=None,
) -> bool:
    """Complete D-alg redundancy check, conservative under its
    backtrack limit.

    :func:`~repro.atpg.dalg.prove_redundant` is three-valued; an
    incomplete search's ``None`` (``complete=False``) is mapped to
    False here so redundancy *removal* never deletes a wire on an
    unfinished search — keeping a removable wire is safe, removing a
    needed one is not.
    """
    from repro.atpg.dalg import prove_redundant

    verdict = prove_redundant(
        circuit, fault, observables, max_backtracks, tracer=tracer
    )
    return verdict is True


def remove_wire(circuit: Circuit, gate_name: str, input_index: int) -> None:
    """Delete one input edge; degenerate gates become constants.

    Removing a redundant AND-input (s-a-1 untestable) or OR-input
    (s-a-0 untestable) leaves the remaining inputs; a gate left with no
    inputs becomes the non-controlling constant (empty AND = 1, empty
    OR = 0).
    """
    gate = circuit.gates[gate_name]
    del gate.inputs[input_index]
    if not gate.inputs:
        kind = (
            GateKind.CONST1 if gate.kind == GateKind.AND else GateKind.CONST0
        )
        circuit.gates[gate_name] = Gate(gate_name, kind)
    circuit.invalidate()


def redundancy_removal(
    circuit: Circuit,
    observables: Optional[Set[str]] = None,
    learn_depth: int = 0,
    max_rounds: int = 10,
    exact: bool = False,
    max_backtracks: int = 20000,
    tracer=None,
) -> int:
    """Greedy redundancy removal; returns the number of wires removed.

    After each removal the circuit changes, so candidate faults are
    re-enumerated; rounds repeat until no wire is removable.

    With ``exact=True`` a wire the implications cannot prove redundant
    is additionally checked with the complete miter D-alg
    (:func:`wire_is_redundant_exact`); a search that runs out of
    backtracks is treated as *not redundant*, so a tight
    *max_backtracks* only makes the removal less aggressive, never
    unsound.  An enabled *tracer*
    records the whole sweep as one ``atpg`` span.
    """
    tracer = as_tracer(tracer)
    removed = 0
    with tracer.span(
        "atpg", scope="redundancy_removal", gates=len(circuit.gates)
    ) as span:
        for _ in range(max_rounds):
            progress = False
            for fault in list(all_wire_faults(circuit)):
                gate = circuit.gates.get(fault.gate)
                if gate is None or fault.input_index >= len(gate.inputs):
                    continue
                redundant = wire_is_redundant(
                    circuit, fault, observables, learn_depth
                )
                if not redundant and exact:
                    redundant = wire_is_redundant_exact(
                        circuit,
                        fault,
                        observables,
                        max_backtracks,
                        tracer=tracer,
                    )
                if redundant:
                    remove_wire(circuit, fault.gate, fault.input_index)
                    removed += 1
                    progress = True
            if not progress:
                break
        span.annotate(wires_removed=removed)
    return removed


def add_redundant_wire(
    circuit: Circuit,
    gate_name: str,
    edge: Tuple[str, bool],
    observables: Optional[Set[str]] = None,
    learn_depth: int = 0,
) -> bool:
    """Add *edge* to a gate if it is provably redundant (RAR's "add").

    The candidate connection is redundant when its removal-fault
    (s-a-1 for AND, s-a-0 for OR) on the *new* wire is untestable in
    the modified circuit.  Returns True when the wire was added.
    """
    gate = circuit.gates[gate_name]
    if gate.kind not in (GateKind.AND, GateKind.OR):
        raise ValueError("can only add wires to AND/OR gates")
    gate.inputs.append(edge)
    circuit.invalidate()
    stuck = gate.kind == GateKind.AND
    fault = StuckAtFault(gate_name, len(gate.inputs) - 1, stuck)
    if wire_is_redundant(circuit, fault, observables, learn_depth):
        return True
    gate.inputs.pop()
    circuit.invalidate()
    return False
