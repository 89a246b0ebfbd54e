"""Fault simulation and exhaustive test search.

An independent oracle for the redundancy machinery: a stuck-at fault
is *testable* iff some input assignment makes a chosen observable
differ between the good and the faulty circuit.  For the small
circuits of the test suite this can be decided exhaustively, which
lets property tests verify that :func:`repro.atpg.redundancy.\
wire_is_redundant` never reports a testable fault as redundant (the
one-sided guarantee everything else relies on).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.circuit.circuit import Circuit
from repro.circuit.gate import GateKind
from repro.atpg.fault import StuckAtFault


def faulty_evaluate(
    circuit: Circuit, fault: StuckAtFault, assignment: Dict[str, bool]
) -> Dict[str, bool]:
    """Evaluate the circuit with the fault injected on its wire."""
    values: Dict[str, bool] = {}
    for name in circuit.topo_order():
        gate = circuit.gates[name]
        if gate.kind == GateKind.PI:
            values[name] = bool(assignment[name])
        elif gate.kind == GateKind.CONST0:
            values[name] = False
        elif gate.kind == GateKind.CONST1:
            values[name] = True
        else:
            literals: List[bool] = []
            for i, (signal, phase) in enumerate(gate.inputs):
                value = values[signal] if phase else not values[signal]
                if name == fault.gate and i == fault.input_index:
                    value = fault.stuck_value
                literals.append(value)
            if gate.kind == GateKind.AND:
                values[name] = all(literals)
            else:
                values[name] = any(literals)
    return values


def find_test_exhaustive(
    circuit: Circuit,
    fault: StuckAtFault,
    observables: Optional[Set[str]] = None,
    max_pis: int = 12,
) -> Optional[Dict[str, bool]]:
    """Exhaustive search for a test vector; ``None`` = untestable.

    *observables* defaults to signals with no fanout.
    """
    pis = sorted(circuit.pis())
    if len(pis) > max_pis:
        raise ValueError(
            f"exhaustive search capped at {max_pis} inputs"
        )
    if observables is None:
        fanouts = circuit.fanouts()
        observables = {
            name for name, outs in fanouts.items() if not outs
        }
    for pattern in range(1 << len(pis)):
        assignment = {
            pi: bool(pattern >> i & 1) for i, pi in enumerate(pis)
        }
        good = circuit.evaluate(assignment)
        bad = faulty_evaluate(circuit, fault, assignment)
        if any(good[o] != bad[o] for o in observables):
            return assignment
    return None
