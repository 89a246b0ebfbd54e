"""Three-valued implication engine with recursive learning.

Signals take values in {0, 1, unknown}.  Assignments propagate both
forward (gate inputs determine the output) and backward (a known
output constrains the inputs) until a fixpoint; an attempt to assign a
signal both values is a :class:`Conflict`.  Recursive learning (the
paper's Section III-B dial, after Kunz & Pradhan) then case-splits on
every unjustified gate: if every justification option conflicts the
state is inconsistent, otherwise the values common to all surviving
options are learned.

During the paper's division, a conflict among a fault's mandatory
assignments proves the fault untestable — which is what licenses
removing the wire.  :func:`imply` is that test: assign, propagate,
learn, and report the state or ``None`` on a conflict.

The engine runs on a circuit's compiled form,
:class:`~repro.circuit.circuit.CompiledCircuit` (int ids, precomputed
controlling values, per-signal touch lists).
Values live in a list indexed by signal id, and every assignment is
appended to a *trail*.  The trail doubles as the propagation queue: a
head index walks it in assignment order, so signals are processed
first-in first-out, and a case split in learning is undone by
truncating the trail back to a mark.  The processing order is part of
the engine's semantics, not an implementation detail: a signal with no
driving gate has no fanout entries, so assigning it re-examines no
gate, and which implications fire then depends on when the gates
reading it are examined.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.circuit.circuit import Circuit, CompiledCircuit


class Conflict(Exception):
    """A signal was implied to both 0 and 1."""

    def __init__(self, signal: str):
        super().__init__(f"conflicting implication on signal {signal!r}")
        self.signal = signal


#: A trail position to undo back to: (trail length, queue head).
Mark = Tuple[int, int]


class Implications:
    """Implication state over one compiled circuit.

    ``values[id]`` is True, False or None (unknown); ``trail`` lists
    the assigned ids in assignment order, starting with the circuit's
    constants; ``trail[head:]`` is the queue of assignments whose
    gates have not been examined yet.  Signals the circuit never
    mentions may still be assigned by name: they take part in no
    implication, so they are only recorded (in ``extra``).
    """

    __slots__ = ("compiled", "values", "trail", "head", "extra")

    def __init__(self, compiled: CompiledCircuit):
        self.compiled = compiled
        self.values: List[Optional[bool]] = list(compiled.base_values)
        self.trail: List[int] = list(compiled.constants)
        self.head = 0
        self.extra: Optional[Dict[str, bool]] = None

    def copy(self) -> "Implications":
        other = Implications.__new__(Implications)
        other.compiled = self.compiled
        other.values = list(self.values)
        other.trail = list(self.trail)
        other.head = self.head
        other.extra = None if self.extra is None else dict(self.extra)
        return other

    # ------------------------------------------------------------------
    def value(self, name: str) -> Optional[bool]:
        signal = self.compiled.index.get(name)
        if signal is None:
            return None if self.extra is None else self.extra.get(name)
        return self.values[signal]

    def assign(self, signal: int, value: bool) -> None:
        """Record an assignment by id (raises :class:`Conflict`)."""
        current = self.values[signal]
        if current is None:
            self.values[signal] = value
            self.trail.append(signal)
        elif current is not value:
            raise Conflict(self.compiled.names[signal])

    def assign_name(self, name: str, value: bool) -> None:
        """Record an assignment by signal name; any truthy or falsy
        *value* (``1``, ``numpy.bool_``) is taken as a bool."""
        value = bool(value)
        signal = self.compiled.index.get(name)
        if signal is not None:
            self.assign(signal, value)
            return
        if self.extra is None:
            self.extra = {}
        current = self.extra.setdefault(name, value)
        if current is not value:
            raise Conflict(name)

    def mark(self) -> Mark:
        return len(self.trail), self.head

    def undo(self, mark: Mark) -> None:
        """Forget every assignment made since *mark*."""
        length, head = mark
        values = self.values
        trail = self.trail
        for signal in trail[length:]:
            values[signal] = None
        del trail[length:]
        self.head = head

    # ------------------------------------------------------------------
    def propagate(self) -> None:
        """Run direct implications to a fixpoint."""
        compiled = self.compiled
        values = self.values
        trail = self.trail
        push = trail.append
        touch = compiled.touch
        inputs = compiled.inputs
        ctrl = compiled.ctrl
        head = self.head
        try:
            while head < len(trail):
                signal = trail[head]
                head += 1
                for gate in touch[signal]:
                    # AND and OR share the rules up to the controlling
                    # value: AND is controlled by 0, OR by 1.
                    c = ctrl[gate]
                    saw = False
                    unknown = 0
                    for x, xc in inputs[gate]:
                        v = values[x]
                        if v is None:
                            unknown += 1
                            last, last_c = x, xc
                        elif v is xc:
                            saw = True
                            break
                    out = values[gate]
                    if saw:
                        # Forward: a controlling input fixes the output.
                        if out is None:
                            values[gate] = c
                            push(gate)
                        elif out is not c:
                            raise Conflict(compiled.names[gate])
                    elif not unknown:
                        # Forward: every input is non-controlling.
                        if out is None:
                            values[gate] = not c
                            push(gate)
                        elif out is c:
                            raise Conflict(compiled.names[gate])
                    elif out is c:
                        # Backward, AND=0 / OR=1: the one input left
                        # unknown must be controlling.
                        if unknown == 1:
                            values[last] = last_c
                            push(last)
                    elif out is not None:
                        # Backward, AND=1 / OR=0: every input is at the
                        # non-controlling value.
                        for x, xc in inputs[gate]:
                            v = values[x]
                            if v is None:
                                values[x] = not xc
                                push(x)
                            elif v is xc:
                                raise Conflict(compiled.names[x])
        finally:
            self.head = head

    # ------------------------------------------------------------------
    def unjustified(self) -> List[int]:
        """Gates whose known output no input explains yet, in gate order.

        An AND at 0 or an OR at 1 is justified by a controlling input;
        these are the case-split points recursive learning uses.
        """
        values = self.values
        ctrl = self.compiled.ctrl
        inputs = self.compiled.inputs
        result = []
        for gate in sorted(s for s in self.trail if values[s] is ctrl[s]):
            open_input = False
            for x, xc in inputs[gate]:
                v = values[x]
                if v is None:
                    open_input = True
                elif v is xc:
                    break  # justified
            else:
                if open_input:
                    result.append(gate)
        return result

    def learn(self, depth: int = 1, max_gates: int = 200) -> None:
        """Strengthen the state by recursive learning.

        Raises :class:`Conflict` when learning proves the current
        assignments inconsistent.  *depth* bounds the nesting;
        *max_gates* bounds how many unjustified gates are examined per
        round (a run time guard for the GDC configuration on large
        circuits).
        """
        if depth <= 0:
            return
        values = self.values
        trail = self.trail
        inputs = self.compiled.inputs
        changed = True
        while changed:
            changed = False
            for gate in self.unjustified()[:max_gates]:
                # The gate may have become justified by earlier learning.
                options: List[Tuple[int, bool]] = []
                for x, xc in inputs[gate]:
                    v = values[x]
                    if v is None:
                        options.append((x, xc))
                    elif v is xc:
                        break
                else:  # still unjustified: split on its open inputs
                    common = self._common_consequences(
                        options, depth, max_gates
                    )
                    if common is None:
                        # Every justification option conflicts.
                        raise Conflict(self.compiled.names[gate])
                    for signal, value in common.items():
                        if values[signal] is None:
                            values[signal] = value
                            trail.append(signal)
                            changed = True
                    self.propagate()

    def _common_consequences(
        self, options: List[Tuple[int, bool]], depth: int, max_gates: int
    ) -> Optional[Dict[int, bool]]:
        """Assignments every non-conflicting option implies, in the
        order the first surviving option implied them; ``None`` when
        every option conflicts."""
        values = self.values
        trail = self.trail
        mark = self.mark()
        common: Optional[Dict[int, bool]] = None
        for signal, value in options:
            try:
                self.assign(signal, value)
                self.propagate()
                if depth > 1:
                    self.learn(depth - 1, max_gates)
            except Conflict:
                self.undo(mark)
                continue
            if common is None:
                common = {s: values[s] for s in trail[mark[0]:]}
            else:
                common = {s: v for s, v in common.items() if values[s] is v}
            self.undo(mark)
            if not common:
                break  # later options cannot add anything back
        return common


def imply(
    circuit: Circuit,
    assignments: Iterable[Tuple[str, bool]],
    learn_depth: int = 0,
) -> Optional[Implications]:
    """Assign, propagate to a fixpoint, then learn to *learn_depth*.

    Returns the resulting state, or ``None`` when the assignments
    conflict — for a fault's mandatory assignments, a proof that the
    fault is untestable.  Values are taken as bools, so ``0``/``1``
    work too.
    """
    state = Implications(circuit.compiled())
    index = state.compiled.index
    try:
        for name, value in assignments:
            signal = index.get(name)
            if signal is None:
                state.assign_name(name, value)
            else:
                state.assign(signal, bool(value))
        state.propagate()
        if learn_depth > 0:
            state.learn(learn_depth)
    except Conflict:
        return None
    return state

