"""Tests for one-level recursive learning."""

import pytest

from repro.atpg.implication import Conflict, imply
from repro.circuit.circuit import Circuit


def convergent_or() -> Circuit:
    """f = ab + ac: both justifications of f=1 imply a=1."""
    c = Circuit()
    for pi in "abc":
        c.add_pi(pi)
    c.add_and("g1", [("a", True), ("b", True)])
    c.add_and("g2", [("a", True), ("c", True)])
    c.add_or("f", [("g1", True), ("g2", True)])
    return c


class TestLearning:
    def test_learns_common_implication(self):
        e = imply(convergent_or(), [("f", True)])
        assert e.value("a") is None  # direct implications miss it
        e.learn(depth=1)
        assert e.value("a") is True  # learning catches it

    def test_learns_conflict_when_all_options_fail(self):
        # f = ab + cd with blockers ab=0 and cd=0 asserted via watcher
        # gates: direct implications see nothing (every gate has two
        # unknowns), but each justification option of f=1 conflicts
        # inside its fork, so learning proves the state inconsistent.
        c = Circuit()
        for pi in "abcd":
            c.add_pi(pi)
        c.add_and("g1", [("a", True), ("b", True)])
        c.add_and("g2", [("c", True), ("d", True)])
        c.add_or("f", [("g1", True), ("g2", True)])
        c.add_and("h1", [("a", True), ("b", True)])
        c.add_and("h2", [("c", True), ("d", True)])
        e = imply(c, [("f", True), ("h1", False), ("h2", False)])
        assert e is not None
        with pytest.raises(Conflict):
            e.learn(depth=1)

    def test_depth_zero_is_noop(self):
        e = imply(convergent_or(), [("f", True)])
        e.learn(depth=0)
        assert e.value("a") is None

    def test_learning_derives_divisor_cube_value(self):
        # The extended-division voting scenario: knowing cdx=0 and x=1
        # must teach the engine that the divisor cube cd is 0.
        c = Circuit()
        for pi in "cdx":
            c.add_pi(pi)
        c.add_and("fq", [("c", True), ("d", True), ("x", True)])
        c.add_and("k", [("c", True), ("d", True)])
        e = imply(c, [("fq", False), ("x", True)])
        assert e.value("k") is None
        e.learn(depth=1)
        assert e.value("k") is False

    def test_two_level_learning(self):
        # f = g1 + g2, g1 = a(bc), g2 = a(bd): depth-2 learning finds
        # both a=1 and b=1.
        c = Circuit()
        for pi in "abcd":
            c.add_pi(pi)
        c.add_and("m1", [("b", True), ("c", True)])
        c.add_and("m2", [("b", True), ("d", True)])
        c.add_and("g1", [("a", True), ("m1", True)])
        c.add_and("g2", [("a", True), ("m2", True)])
        c.add_or("f", [("g1", True), ("g2", True)])
        e = imply(c, [("f", True)])
        e.learn(depth=2)
        assert e.value("a") is True
        assert e.value("b") is True

    def test_max_gates_bounds_work(self):
        e = imply(convergent_or(), [("f", True)])
        e.learn(depth=1, max_gates=0)
        assert e.value("a") is None
