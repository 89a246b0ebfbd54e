"""Reference implication engine: the original string-keyed version.

A compact copy of the dict-based engine and recursive learning that
:mod:`repro.atpg.implication` replaced, kept only as the oracle for
``test_engine_differential.py``.  Its processing order is the
specification the compiled engine reproduces: a FIFO queue of assigned
signals, and for each signal its own gate, then its ``fanouts()``
entries.  Conflicts raise the production :class:`Conflict`.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.atpg.implication import Conflict
from repro.circuit.circuit import Circuit
from repro.circuit.gate import Gate, GateKind


class ReferenceEngine:
    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.values: Dict[str, bool] = {}
        self._queue: deque = deque()
        self._fanouts = circuit.fanouts()
        for gate in circuit.gates.values():
            if gate.kind in (GateKind.CONST0, GateKind.CONST1):
                self.values[gate.name] = gate.kind == GateKind.CONST1
                self._queue.append(gate.name)

    def value(self, signal: str) -> Optional[bool]:
        return self.values.get(signal)

    def assign(self, signal: str, value: bool) -> None:
        current = self.values.get(signal)
        if current is not None:
            if current != value:
                raise Conflict(signal)
            return
        self.values[signal] = value
        self._queue.append(signal)

    def fork(self) -> "ReferenceEngine":
        copy = ReferenceEngine.__new__(ReferenceEngine)
        copy.circuit = self.circuit
        copy.values = dict(self.values)
        copy._queue = deque(self._queue)
        copy._fanouts = self._fanouts
        return copy

    def propagate(self) -> None:
        while self._queue:
            signal = self._queue.popleft()
            gate = self.circuit.gates.get(signal)
            if gate is not None:
                self._process(gate)
            for fanout in self._fanouts.get(signal, ()):
                self._process(self.circuit.gates[fanout])

    def literal(self, edge: Tuple[str, bool]) -> Optional[bool]:
        value = self.values.get(edge[0])
        if value is None:
            return None
        return value if edge[1] else not value

    def assign_literal(self, edge: Tuple[str, bool], value: bool) -> None:
        self.assign(edge[0], value if edge[1] else not value)

    def _process(self, gate: Gate) -> None:
        if gate.kind == GateKind.PI:
            return
        if gate.kind in (GateKind.CONST0, GateKind.CONST1):
            self.assign(gate.name, gate.kind == GateKind.CONST1)
            return
        controlling = gate.controlling_value()
        out = self.values.get(gate.name)
        unknown: List[Tuple[str, bool]] = []
        saw_controlling = False
        for edge in gate.inputs:
            lit = self.literal(edge)
            if lit is None:
                unknown.append(edge)
            elif lit == controlling:
                saw_controlling = True
        if saw_controlling:
            self.assign(gate.name, controlling)
            out = controlling
        elif not unknown:
            self.assign(gate.name, not controlling)
            out = not controlling
        if out is None:
            return
        if out != controlling:
            for edge in gate.inputs:
                self.assign_literal(edge, not controlling)
        elif not saw_controlling:
            if not unknown:
                raise Conflict(gate.name)
            if len(unknown) == 1:
                self.assign_literal(unknown[0], controlling)

    def unjustified_gates(self) -> List[Gate]:
        result = []
        for gate in self.circuit.gates.values():
            if gate.kind not in (GateKind.AND, GateKind.OR):
                continue
            if self.values.get(gate.name) != gate.controlling_value():
                continue
            lits = [self.literal(edge) for edge in gate.inputs]
            if gate.controlling_value() not in lits and None in lits:
                result.append(gate)
        return result


def reference_learn(
    engine: ReferenceEngine, depth: int = 1, max_gates: int = 200
) -> None:
    """The original recursive learning, over a :class:`ReferenceEngine`."""
    if depth <= 0:
        return
    changed = True
    while changed:
        changed = False
        for gate in engine.unjustified_gates()[:max_gates]:
            out = engine.value(gate.name)
            if out is None or out != gate.controlling_value():
                continue
            if any(engine.literal(edge) == out for edge in gate.inputs):
                continue
            options = [e for e in gate.inputs if engine.literal(e) is None]
            if not options:
                raise Conflict(gate.name)
            common: Optional[Dict[str, bool]] = None
            for edge in options:
                fork = engine.fork()
                try:
                    fork.assign_literal(edge, out)
                    fork.propagate()
                    if depth > 1:
                        reference_learn(fork, depth - 1, max_gates)
                except Conflict:
                    continue
                if common is None:
                    common = dict(fork.values)
                else:
                    common = {
                        s: v
                        for s, v in common.items()
                        if fork.values.get(s) == v
                    }
                if not common:
                    break
            if common is None:
                raise Conflict(gate.name)
            for signal, value in common.items():
                if engine.value(signal) is None:
                    engine.assign(signal, value)
                    changed = True
            engine.propagate()
