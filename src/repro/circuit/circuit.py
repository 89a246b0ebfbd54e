"""The structural circuit: a DAG of :class:`Gate` objects."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.circuit.gate import Gate, GateKind


class Circuit:
    """A named collection of gates with fanout bookkeeping.

    Signals and gates are identified by the same names: the gate named
    ``s`` drives signal ``s``.
    """

    def __init__(self, name: str = "circuit"):
        self.name = name
        self.gates: Dict[str, Gate] = {}
        self._fanouts: Optional[Dict[str, List[str]]] = None
        self._compiled: Optional["CompiledCircuit"] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_gate(self, gate: Gate) -> Gate:
        if gate.name in self.gates:
            raise ValueError(f"duplicate gate name {gate.name!r}")
        self.gates[gate.name] = gate
        self._fanouts = None
        self._compiled = None
        return gate

    def add_pi(self, name: str) -> Gate:
        return self.add_gate(Gate(name, GateKind.PI))

    def add_and(self, name: str, inputs: Iterable[Tuple[str, bool]]) -> Gate:
        return self.add_gate(Gate(name, GateKind.AND, list(inputs)))

    def add_or(self, name: str, inputs: Iterable[Tuple[str, bool]]) -> Gate:
        return self.add_gate(Gate(name, GateKind.OR, list(inputs)))

    def remove_gate(self, name: str) -> None:
        del self.gates[name]
        self._fanouts = None
        self._compiled = None

    def invalidate(self) -> None:
        """Call after mutating a gate's input list in place."""
        self._fanouts = None
        self._compiled = None

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def fanouts(self) -> Dict[str, List[str]]:
        if self._fanouts is None:
            table: Dict[str, List[str]] = {name: [] for name in self.gates}
            for gate in self.gates.values():
                for signal, _ in gate.inputs:
                    if signal in table:
                        table[signal].append(gate.name)
            self._fanouts = table
        return self._fanouts

    def compiled(self) -> "CompiledCircuit":
        """This structural state as int-indexed arrays (cached)."""
        if self._compiled is None:
            self._compiled = CompiledCircuit(self)
        return self._compiled

    def pis(self) -> List[str]:
        return [
            g.name for g in self.gates.values() if g.kind == GateKind.PI
        ]

    def topo_order(self) -> List[str]:
        state: Dict[str, int] = {}
        order: List[str] = []
        for root in self.gates:
            if state.get(root, 0):
                continue
            stack = [(root, iter(self.gates[root].inputs))]
            state[root] = 1
            while stack:
                current, it = stack[-1]
                advanced = False
                for signal, _ in it:
                    mark = state.get(signal, 0)
                    if mark == 1:
                        raise ValueError(f"cycle through {signal!r}")
                    if mark == 0 and signal in self.gates:
                        state[signal] = 1
                        stack.append(
                            (signal, iter(self.gates[signal].inputs))
                        )
                        advanced = True
                        break
                if not advanced:
                    state[current] = 2
                    order.append(current)
                    stack.pop()
        return order

    def transitive_fanin(self, name: str) -> Set[str]:
        result: Set[str] = set()
        stack = [s for s, _ in self.gates[name].inputs]
        while stack:
            current = stack.pop()
            if current in result or current not in self.gates:
                continue
            result.add(current)
            stack.extend(s for s, _ in self.gates[current].inputs)
        return result

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, assignment: Dict[str, bool]) -> Dict[str, bool]:
        """Evaluate all gates given PI values."""
        values: Dict[str, bool] = {}
        for name in self.topo_order():
            gate = self.gates[name]
            if gate.kind == GateKind.PI:
                values[name] = bool(assignment[name])
            elif gate.kind == GateKind.CONST0:
                values[name] = False
            elif gate.kind == GateKind.CONST1:
                values[name] = True
            else:
                literals = (
                    values[s] if phase else not values[s]
                    for s, phase in gate.inputs
                )
                if gate.kind == GateKind.AND:
                    values[name] = all(literals)
                else:
                    values[name] = any(literals)
        return values

    def count_wires(self) -> int:
        return sum(len(g.inputs) for g in self.gates.values())

    def copy(self, name: Optional[str] = None) -> "Circuit":
        duplicate = Circuit(name or self.name)
        for gate in self.gates.values():
            duplicate.gates[gate.name] = gate.copy()
        return duplicate

    def __repr__(self) -> str:
        return f"Circuit({self.name!r}, gates={len(self.gates)})"


class CompiledCircuit:
    """One structural state of a :class:`Circuit` as int-indexed arrays.

    This is what the implication engine (:mod:`repro.atpg.implication`)
    runs on.  Signal ids are the gates in ``circuit.gates`` order, then
    every undriven signal some gate reads, in order of first reference.
    Per id:

    * ``inputs`` — for an AND/OR gate, one ``(input id, controlling)``
      pair per input edge, where ``controlling`` is the input signal's
      value that makes the edge's literal the gate's controlling value
      (so a negated edge into an AND is controlling at 1); ``()``
      otherwise;
    * ``ctrl`` — the gate's controlling value (AND 0, OR 1), ``None``
      for PIs, constants and undriven signals;
    * ``touch`` — the AND/OR gates to re-examine when the signal gets a
      value: its own gate, then one entry per fanout edge in
      ``fanouts()`` order (a gate reading the signal twice appears
      twice).  An undriven signal has no fanout entries, exactly as in
      ``fanouts()``, so its touch list is empty.

    ``base_values`` holds the constants' values and ``constants`` their
    ids in gate order: the facts every implication run starts from.
    """

    __slots__ = (
        "names", "index", "inputs", "ctrl", "touch", "base_values",
        "constants",
    )

    def __init__(self, circuit: Circuit):
        names: List[str] = list(circuit.gates)
        index: Dict[str, int] = {name: i for i, name in enumerate(names)}
        n_gates = len(names)
        inputs: List[Tuple[Tuple[int, bool], ...]] = [()] * n_gates
        ctrl: List[Optional[bool]] = [None] * n_gates
        fanouts: List[List[int]] = [[] for _ in range(n_gates)]
        base_values: List[Optional[bool]] = [None] * n_gates
        constants: List[int] = []
        for gid, gate in enumerate(circuit.gates.values()):
            kind = gate.kind
            if kind is GateKind.AND or kind is GateKind.OR:
                c = kind is GateKind.OR
                ctrl[gid] = c
                edges = []
                for signal, phase in gate.inputs:
                    sid = index.get(signal)
                    if sid is None:
                        sid = index[signal] = len(names)
                        names.append(signal)
                    elif sid < n_gates:
                        fanouts[sid].append(gid)
                    edges.append((sid, phase == c))
                inputs[gid] = tuple(edges)
            elif kind is GateKind.CONST0 or kind is GateKind.CONST1:
                base_values[gid] = kind is GateKind.CONST1
                constants.append(gid)
        undriven = len(names) - n_gates
        self.names = names
        self.index = index
        self.inputs = inputs + [()] * undriven
        self.ctrl = ctrl + [None] * undriven
        self.touch = [
            ((gid,) if ctrl[gid] is not None else ()) + tuple(fanouts[gid])
            for gid in range(n_gates)
        ] + [()] * undriven
        self.base_values = base_values + [None] * undriven
        self.constants = tuple(constants)
