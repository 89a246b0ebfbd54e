"""Fault simulation tests and soundness cross-validation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg.fault import StuckAtFault, all_wire_faults
from repro.atpg.redundancy import wire_is_redundant
from repro.atpg.simulate import faulty_evaluate, find_test_exhaustive
from repro.circuit.circuit import Circuit


def demo() -> Circuit:
    c = Circuit()
    for pi in "abc":
        c.add_pi(pi)
    c.add_and("g1", [("a", True), ("b", True)])
    c.add_and("g2", [("a", True), ("b", False), ("c", True)])
    c.add_or("out", [("g1", True), ("g2", True)])
    return c


def random_circuit(seed: int) -> Circuit:
    rng = random.Random(seed)
    c = Circuit(f"r{seed}")
    signals = []
    for i in range(rng.randint(2, 4)):
        name = f"x{i}"
        c.add_pi(name)
        signals.append(name)
    for j in range(rng.randint(1, 5)):
        width = rng.randint(1, min(3, len(signals)))
        inputs = [
            (s, rng.random() < 0.7)
            for s in rng.sample(signals, width)
        ]
        name = f"g{j}"
        if rng.random() < 0.5:
            c.add_and(name, inputs)
        else:
            c.add_or(name, inputs)
        signals.append(name)
    return c


class TestFaultyEvaluate:
    def test_injects_fault(self):
        c = demo()
        fault = StuckAtFault("g1", 0, True)  # a-wire stuck at 1
        assignment = {"a": False, "b": True, "c": False}
        good = c.evaluate(assignment)
        bad = faulty_evaluate(c, fault, assignment)
        assert good["out"] is False
        assert bad["out"] is True

    def test_no_effect_when_value_matches(self):
        c = demo()
        fault = StuckAtFault("g1", 0, True)
        assignment = {"a": True, "b": True, "c": False}
        assert (
            faulty_evaluate(c, fault, assignment)["out"]
            == c.evaluate(assignment)["out"]
        )


class TestFindTest:
    def test_finds_test_for_testable_fault(self):
        c = demo()
        fault = StuckAtFault("g1", 0, True)
        test = find_test_exhaustive(c, fault, {"out"})
        assert test is not None
        assert (
            c.evaluate(test)["out"]
            != faulty_evaluate(c, fault, test)["out"]
        )

    def test_untestable_fault_returns_none(self):
        c = demo()
        fault = StuckAtFault("g2", 1, True)  # redundant b' literal
        assert find_test_exhaustive(c, fault, {"out"}) is None

    def test_pi_cap(self):
        c = Circuit()
        for i in range(13):
            c.add_pi(f"x{i}")
        c.add_and("g", [(f"x{i}", True) for i in range(13)])
        with pytest.raises(ValueError):
            find_test_exhaustive(c, StuckAtFault("g", 0, True))


class TestSoundnessCrossValidation:
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_redundant_implies_untestable(self, seed):
        """The one-sided guarantee: a conflict proof is never wrong."""
        circuit = random_circuit(seed)
        fanouts = circuit.fanouts()
        observables = {
            name for name, outs in fanouts.items() if not outs
        }
        for fault in all_wire_faults(circuit):
            for learn in (0, 1):
                if wire_is_redundant(
                    circuit, fault, observables, learn_depth=learn
                ):
                    assert (
                        find_test_exhaustive(
                            circuit, fault, observables
                        )
                        is None
                    ), (circuit.gates, fault, learn)
