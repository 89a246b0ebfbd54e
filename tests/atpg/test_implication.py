"""Tests for the three-valued implication engine."""

import pytest

from repro.atpg.implication import Conflict, Implications, imply
from repro.circuit.circuit import Circuit
from repro.circuit.gate import Gate, GateKind


def assigned(state: Implications) -> dict:
    """Every assigned signal's value by name, in assignment order."""
    names = state.compiled.names
    result = {names[s]: state.values[s] for s in state.trail}
    if state.extra:
        result.update(state.extra)
    return result


def unjustified_names(state: Implications) -> list:
    """The names of the gates ``state.unjustified()`` lists, in order."""
    return [state.compiled.names[g] for g in state.unjustified()]


def and_or_circuit() -> Circuit:
    c = Circuit()
    for pi in "abcd":
        c.add_pi(pi)
    c.add_and("g", [("a", True), ("b", True)])
    c.add_or("f", [("g", True), ("c", True)])
    c.add_and("h", [("g", True), ("d", False)])
    return c


class TestForward:
    def test_and_controlled_by_zero(self):
        e = imply(and_or_circuit(), [("a", False)])
        assert e is not None
        assert e.value("g") is False

    def test_and_all_ones(self):
        e = imply(and_or_circuit(), [("a", True), ("b", True)])
        assert e is not None
        assert e.value("g") is True

    def test_or_controlled_by_one(self):
        e = imply(and_or_circuit(), [("c", True)])
        assert e is not None
        assert e.value("f") is True

    def test_or_all_zero(self):
        e = imply(and_or_circuit(), [("a", False), ("c", False)])
        assert e is not None
        assert e.value("f") is False

    def test_edge_phase_inversion(self):
        e = imply(and_or_circuit(), [("a", True), ("b", True), ("d", True)])
        assert e is not None
        assert e.value("h") is False  # d' literal is 0

    def test_constants_propagate(self):
        c = Circuit()
        c.add_gate(Gate("one", GateKind.CONST1))
        c.add_and("f", [("one", True)])
        e = Implications(c.compiled())
        # Constants start on the trail, so they fire without an
        # assignment.
        e.propagate()
        assert e.value("f") is True
        assert imply(c, []) is not None


class TestBackward:
    def test_and_output_one_forces_inputs(self):
        e = imply(and_or_circuit(), [("g", True)])
        assert e is not None
        assert e.value("a") is True and e.value("b") is True

    def test_or_output_zero_forces_inputs(self):
        e = imply(and_or_circuit(), [("f", False)])
        assert e is not None
        assert e.value("c") is False and e.value("g") is False

    def test_last_unknown_input_forced(self):
        e = imply(and_or_circuit(), [("g", False), ("a", True)])
        assert e is not None
        assert e.value("b") is False

    def test_chained_implications(self):
        # f=0 forces g=0 and c=0; with a=1 that forces b=0.
        e = imply(and_or_circuit(), [("f", False), ("a", True)])
        assert e is not None
        assert e.value("b") is False

    def test_phase_aware_backward(self):
        e = imply(and_or_circuit(), [("h", True)])
        assert e is not None
        assert e.value("d") is False  # h needs d'=1


class TestConflicts:
    def test_direct_conflict(self):
        e = Implications(and_or_circuit().compiled())
        e.assign_name("a", True)
        with pytest.raises(Conflict):
            e.assign_name("a", False)

    def test_imply_returns_none_on_conflict(self):
        assert imply(and_or_circuit(), [("g", True), ("a", False)]) is None

    def test_all_noncontrolling_but_controlled_output(self):
        assignments = [("a", True), ("b", True), ("g", False)]
        assert imply(and_or_circuit(), assignments) is None

    def test_reassign_same_value_is_fine(self):
        assert imply(and_or_circuit(), [("a", True), ("a", True)])


class TestForkAndJustification:
    def test_fork_is_independent(self):
        e = imply(and_or_circuit(), [("a", True)])
        fork = e.copy()
        fork.assign_name("b", True)
        fork.propagate()
        assert e.value("b") is None
        assert fork.value("g") is True

    def test_unjustified_gate_detection(self):
        e = imply(and_or_circuit(), [("f", True)])
        assert "f" in unjustified_names(e)

    def test_justified_gate_not_listed(self):
        e = imply(and_or_circuit(), [("f", True), ("c", True)])
        assert "f" not in unjustified_names(e)


class TestSoundnessProperty:
    """Implied values must hold in every consistent completion."""

    def _consistent_completions(self, circuit, assignments):
        import itertools

        pis = sorted(circuit.pis())
        for bits in itertools.product([False, True], repeat=len(pis)):
            assignment = dict(zip(pis, bits))
            values = circuit.evaluate(assignment)
            if all(values[s] == v for s, v in assignments):
                yield values

    def test_implications_are_sound(self):
        import random

        from tests.atpg.test_simulate import random_circuit

        rng = random.Random(99)
        checked = 0
        for seed in range(120):
            circuit = random_circuit(seed)
            signals = list(circuit.gates)
            picks = rng.sample(signals, min(2, len(signals)))
            assignments = [(s, rng.random() < 0.5) for s in picks]
            state = imply(circuit, assignments)
            if state is None:
                # Conflict: there must be no consistent completion
                # (for output-signal assignments this is exact).
                continue
            completions = list(
                self._consistent_completions(circuit, assignments)
            )
            for values in completions:
                for signal, implied in assigned(state).items():
                    assert values[signal] == implied, (
                        seed,
                        assignments,
                        signal,
                    )
                checked += 1
        assert checked > 50  # the test must actually exercise cases

    def test_conflict_implies_unsatisfiable(self):
        from tests.atpg.test_simulate import random_circuit

        import random

        rng = random.Random(5)
        for seed in range(120):
            circuit = random_circuit(seed)
            signals = list(circuit.gates)
            picks = rng.sample(signals, min(3, len(signals)))
            assignments = [(s, rng.random() < 0.5) for s in picks]
            if imply(circuit, assignments) is not None:
                continue
            # The engine reported a conflict: verify exhaustively that
            # no PI assignment satisfies all the requested values.
            assert not list(
                self._consistent_completions(circuit, assignments)
            ), (seed, assignments)
