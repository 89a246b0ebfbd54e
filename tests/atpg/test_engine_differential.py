"""Differential test: the compiled implication engine against the
reference dict engine it replaced (``reference_engine.py``).

Both must agree on conflict vs no conflict and on every implied value
— in assignment order, which is what makes the compiled engine's
outputs byte-identical to the old ones — at learn depth 0, 1 and 2,
through :func:`~repro.atpg.implication.imply` and through
:meth:`~repro.atpg.implication.Implications.copy`.
"""

import itertools
import random

import pytest

from repro.atpg.implication import Conflict, Implications, imply
from repro.circuit.circuit import Circuit
from repro.circuit.gate import Gate, GateKind
from tests.atpg.reference_engine import ReferenceEngine, reference_learn
from tests.atpg.test_implication import assigned, unjustified_names
from tests.atpg.test_simulate import random_circuit

DEPTHS = (0, 1, 2)


def _consistent(values, index):
    """An outcome without a conflict: (None, values, the circuit's
    signals in assignment order).  Names the circuit never mentions
    imply nothing, so only their values are compared, not their
    position."""
    return None, values, [s for s in values if s in index]


def _reference_outcome(ref, assignments, depth):
    """(conflict signal or None, values, signal order) of the
    reference engine."""
    try:
        for signal, value in assignments:
            ref.assign(signal, value)
        ref.propagate()
        reference_learn(ref, depth)
    except Conflict as exc:
        return exc.signal, None, None
    return _consistent(ref.values, ref.circuit.compiled().index)


def _outcome(state, assignments, depth):
    """The same for an :class:`Implications` state."""
    try:
        for signal, value in assignments:
            state.assign_name(signal, value)
        state.propagate()
        state.learn(depth)
    except Conflict as exc:
        return exc.signal, None, None
    return _consistent(assigned(state), state.compiled.index)


def _agree(circuit, assignments, depth):
    """Run both engines; assert they agree; return both engines (or
    ``None`` after a conflict)."""
    ref = ReferenceEngine(circuit)
    new = Implications(circuit.compiled())
    want = _reference_outcome(ref, assignments, depth)
    got = _outcome(new, assignments, depth)
    assert got == want, (circuit.gates, assignments, depth)
    state = imply(circuit, assignments, depth)
    assert (state is None) == (want[0] is not None)
    if state is None:
        return None
    assert {s: state.value(s) for s in want[1]} == want[1]
    assert unjustified_names(new) == [
        g.name for g in ref.unjustified_gates()
    ]
    return ref, new


def _check_fork(ref, new, more, depth):
    """Forks extend independently of their parents and still agree."""
    before = assigned(new)
    ref_fork, new_fork = ref.fork(), new.copy()
    want = _reference_outcome(ref_fork, more, depth)
    got = _outcome(new_fork, more, depth)
    assert got == want, (more, depth)
    assert assigned(new) == before
    assert ref.values == before
    # Signals only the fork assigned stay unknown in the parent.
    assert [new.value(s) for s in new.compiled.names] == [
        before.get(s) for s in new.compiled.names
    ]


def rich_circuit(seed: int) -> Circuit:
    """A random circuit with what analysis circuits contain: undriven
    inputs, constant gates, repeated (possibly opposite-phase) edges,
    gates listed out of topological order, and reconvergence."""
    rng = random.Random(seed)
    signals = [f"x{i}" for i in range(rng.randint(2, 4))]
    undriven = [f"u{i}" for i in range(rng.randint(0, 2))]
    gates = [Gate(name, GateKind.PI) for name in signals]
    for i in range(rng.randint(0, 2)):
        kind = rng.choice((GateKind.CONST0, GateKind.CONST1))
        gates.append(Gate(f"k{i}", kind))
        signals.append(f"k{i}")
    sources = signals + undriven
    for j in range(rng.randint(2, 7)):
        width = rng.randint(1, 4)
        inputs = [
            (rng.choice(sources), rng.random() < 0.6) for _ in range(width)
        ]
        kind = rng.choice((GateKind.AND, GateKind.OR))
        name = f"g{j}"
        gates.append(Gate(name, kind, inputs))
        sources.append(name)
    rng.shuffle(gates)
    circuit = Circuit(f"rich{seed}")
    for gate in gates:
        circuit.add_gate(gate)
    return circuit


def _random_assignments(rng, circuit, count):
    names = list(circuit.compiled().names) + ["not_in_circuit"]
    return [(rng.choice(names), rng.random() < 0.5) for _ in range(count)]


@pytest.mark.parametrize("depth", DEPTHS)
def test_random_circuits_agree(depth):
    rng = random.Random(2024 + depth)
    outcomes = {"conflict": 0, "consistent": 0}
    for seed in range(150):
        circuit = random_circuit(seed)
        assignments = _random_assignments(rng, circuit, rng.randint(1, 3))
        engines = _agree(circuit, assignments, depth)
        outcomes["consistent" if engines else "conflict"] += 1
        if engines:
            more = _random_assignments(rng, circuit, 2)
            _check_fork(*engines, more, depth)
    assert min(outcomes.values()) > 10, outcomes


@pytest.mark.parametrize("depth", DEPTHS)
def test_rich_circuits_agree(depth):
    rng = random.Random(77 + depth)
    outcomes = {"conflict": 0, "consistent": 0}
    for seed in range(300):
        circuit = rich_circuit(seed)
        assignments = _random_assignments(rng, circuit, rng.randint(1, 4))
        engines = _agree(circuit, assignments, depth)
        outcomes["consistent" if engines else "conflict"] += 1
        if engines:
            more = _random_assignments(rng, circuit, rng.randint(1, 2))
            _check_fork(*engines, more, depth)
    assert min(outcomes.values()) > 20, outcomes


def _hand_built():
    # Constants feeding logic, plus an undriven signal beside them.
    consts = Circuit("consts")
    consts.add_gate(Gate("one", GateKind.CONST1))
    consts.add_gate(Gate("zero", GateKind.CONST0))
    consts.add_pi("a")
    consts.add_and("g", [("one", True), ("a", True), ("u", True)])
    consts.add_or("h", [("zero", True), ("g", False), ("u", False)])
    # Undriven inputs: a dividend cube over a fanin outside the
    # divisor's support, listed before the divisor (the order
    # division's analysis circuits produce after a cube is reinstalled).
    undriven = Circuit("undriven")
    undriven.add_and("f.q0", [("u", True), ("d", True), ("v", False)])
    undriven.add_pi("b")
    undriven.add_pi("c")
    undriven.add_and("d.k0", [("b", True), ("c", True)])
    undriven.add_and("d.k1", [("b", False), ("u", True)])
    undriven.add_or("d", [("d.k0", True), ("d.k1", True)])
    undriven.add_and("f.q1", [("u", False), ("c", True)])
    # Repeated edges, same and opposite phase.
    repeated = Circuit("repeated")
    for pi in "xy":
        repeated.add_pi(pi)
    repeated.add_and("t", [("x", True), ("x", False)])
    repeated.add_or("s", [("x", True), ("x", True), ("y", True)])
    repeated.add_and("r", [("s", True), ("y", False), ("s", True)])
    repeated.add_or("o", [("t", True), ("r", True), ("r", False)])
    return [consts, undriven, repeated]


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize(
    "circuit", _hand_built(), ids=lambda c: c.name
)
def test_hand_built_circuits_agree_exhaustively(circuit, depth):
    names = circuit.compiled().names
    literals = [(s, v) for s in names for v in (False, True)]
    for pair in itertools.product(literals, repeat=2):
        engines = _agree(circuit, list(pair), depth)
        if engines:
            for extra in literals[::3]:
                _check_fork(*engines, [extra], depth)


def test_undriven_signal_order_is_observable():
    """Why the compiled engine keeps the reference's queue order: an
    undriven signal re-examines no gate, so what is implied depends on
    whether it was known when its readers were last examined."""
    circuit = Circuit("order")
    circuit.add_and("g", [("u", True), ("a", True)])
    circuit.add_pi("a")
    reference = ReferenceEngine(circuit)
    state = Implications(circuit.compiled())
    for engine, assign, fork in (
        (reference, ReferenceEngine.assign, ReferenceEngine.fork),
        (state, Implications.assign_name, Implications.copy),
    ):
        early = fork(engine)
        assign(early, "u", False)
        assign(early, "a", True)
        early.propagate()
        assert early.value("g") is False  # g examined after u=0
        assign(engine, "a", True)
        engine.propagate()
        assign(engine, "u", False)
        engine.propagate()
        assert engine.value("g") is None  # u=0 reaches no gate


def test_int_values_act_as_bools():
    """``0``/``1`` assign exactly what ``False``/``True`` do: a mixed
    repeat is no conflict, and an int ``0`` controls an AND."""
    circuit = Circuit("ints")
    circuit.add_pi("a")
    circuit.add_pi("b")
    circuit.add_and("g", [("a", True), ("b", True)])
    assert imply(circuit, [("a", 1), ("a", True)]) is not None
    assert imply(circuit, [("a", 0), ("a", True)]) is None
    assert imply(circuit, [("a", 0)]).value("g") is False
    engine = Implications(circuit.compiled())
    engine.assign_name("zz", 1)
    engine.assign_name("zz", True)
    assert engine.value("zz") is True
    rng = random.Random(5)
    for seed in range(40):
        circuit = random_circuit(seed)
        for depth in DEPTHS:
            as_bools = _random_assignments(rng, circuit, rng.randint(1, 4))
            as_ints = [(s, int(v)) for s, v in as_bools]
            want = imply(circuit, as_bools, depth)
            got = imply(circuit, as_ints, depth)
            assert (got is None) == (want is None)
            if want is not None:
                assert got.values == want.values
                assert got.trail == want.trail
                assert got.extra == want.extra
