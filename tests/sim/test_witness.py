"""The witness screen (``repro/sim/witness.py``, DESIGN §17).

A witness is a sampled pattern that meets every mandatory assignment of
an implication test.  The screen skips ``imply`` on such tests, which
is exact only because ``imply`` is sound: it never conflicts, and never
implies a value the pattern contradicts, when a consistent assignment
exists.  The property test checks that on the random circuits of the
engine differential suite at learn depths 0, 1 and 2; the unit tests
pin how the screen reads a network's signatures.
"""

import random
import types

import pytest

from repro.atpg.implication import imply
from repro.circuit.gate import GateKind
from repro.network.network import Network
from repro.sim.signature import SignatureSimulator
from repro.sim.witness import WitnessScreen
from repro.twolevel.cube import Cube
from tests.atpg.test_engine_differential import DEPTHS, rich_circuit
from tests.atpg.test_simulate import random_circuit

PATTERNS = 64


def _packed_signals(circuit, rng):
    """Packed values of every signal of *circuit* on PATTERNS random
    patterns of its free signals (PIs and undriven inputs)."""
    mask = (1 << PATTERNS) - 1
    compiled = circuit.compiled()
    values = {
        name: rng.getrandbits(PATTERNS)
        for name in compiled.names
        if name not in circuit.gates
        or circuit.gates[name].kind is GateKind.PI
    }
    for name in circuit.topo_order():
        gate = circuit.gates[name]
        if gate.kind is GateKind.PI:
            continue
        if gate.kind is GateKind.CONST0:
            values[name] = 0
        elif gate.kind is GateKind.CONST1:
            values[name] = mask
        else:
            literals = [
                values[s] if phase else mask & ~values[s]
                for s, phase in gate.inputs
            ]
            acc = mask if gate.kind is GateKind.AND else 0
            for literal in literals:
                if gate.kind is GateKind.AND:
                    acc &= literal
                else:
                    acc |= literal
            values[name] = acc
    return mask, values


def _screen(mask, signatures):
    sim = types.SimpleNamespace(mask=mask, signatures=signatures)
    return WitnessScreen(sim)


def _check(circuit, rng, depth, counts):
    mask, values = _packed_signals(circuit, rng)
    values["not_in_circuit"] = rng.getrandbits(PATTERNS)
    screen = _screen(mask, values)
    names = list(values)
    for _ in range(8):
        assignments = [
            (rng.choice(names), rng.random() < 0.5)
            for _ in range(rng.randint(1, 4))
        ]
        witnesses = screen.witnesses(assignments, {})
        state = imply(circuit, assignments, depth)
        if not witnesses:
            counts["open"] += 1
            continue
        counts["witnessed"] += 1
        assert state is not None, (circuit.gates, assignments, depth)
        # Every implied value holds on every witness.
        for name in state.compiled.names:
            implied = state.value(name)
            if implied is not None:
                disagree = values[name] if implied is False else ~values[name]
                assert not witnesses & disagree, (
                    circuit.gates, assignments, depth, name,
                )


@pytest.mark.parametrize("depth", DEPTHS)
def test_imply_never_contradicts_a_witness(depth):
    rng = random.Random(4100 + depth)
    counts = {"witnessed": 0, "open": 0}
    for seed in range(150):
        _check(random_circuit(seed), rng, depth, counts)
    for seed in range(300):
        _check(rich_circuit(seed), rng, depth, counts)
    # Both kinds of test occur, so the property is not vacuous.
    assert min(counts.values()) > 100, counts


def test_witnesses_are_exactly_the_patterns_meeting_every_assignment():
    screen = _screen(0b1111, {"a": 0b0011, "b": 0b0101})
    assert screen.witnesses([("a", True)], {}) == 0b0011
    assert screen.witnesses([("a", True), ("b", False)], {}) == 0b0010
    assert screen.witnesses([("a", False), ("g", True)], {"g": 0b1100}) == (
        0b1100
    )
    assert screen.witnesses([("a", True), ("a", False)], {}) == 0
    assert screen.witnesses([], {}) == 0b1111


def _network():
    net = Network("w")
    for pi in "abc":
        net.add_pi(pi)
    net.parse_node("d", "ab + c'", ["a", "b", "c"])
    net.add_po("d")
    return net


def test_cube_signature_matches_the_simulator():
    net = _network()
    sim = SignatureSimulator(net, patterns=64, seed=3)
    screen = WitnessScreen(sim)
    shared = ["a", "b", "c", "d"]
    cube = Cube.from_literals([(0, True), (2, False), (3, True)])
    sig = sim.signatures
    expected = sig["a"] & ~sig["c"] & sig["d"] & sim.mask
    assert screen.cube(cube, shared) == expected
    assert screen.cube(Cube.from_literals([]), shared) == sim.mask


def test_unseen_node_is_evaluated_without_touching_the_simulator():
    """A node added since the last refresh (the core node extended
    division exposes) is read from its fanins' signatures."""
    net = _network()
    sim = SignatureSimulator(net, patterns=64, seed=3)
    net.parse_node("core", "ab", ["a", "b"])
    net.parse_node("top", "core c", ["core", "c"])
    screen = WitnessScreen(sim)
    before = (dict(sim.signatures), sim.generation, sim.nodes_resimulated)
    top = screen.signal("top")
    assert (dict(sim.signatures), sim.generation, sim.nodes_resimulated) == (
        before
    )
    fresh = SignatureSimulator(net, patterns=64, seed=3)
    assert screen.signal("core") == fresh.signatures["core"]
    assert top == fresh.signatures["top"]
