"""Tests for equivalence checking."""

import pytest

from repro.bdd import BddManager
from repro.network.network import Network
from repro.network import verify
from repro.network.verify import (
    exact_equivalent,
    network_output_bdds,
    networks_equivalent,
    simulate_equivalent,
)


def pair(f_expr: str, g_expr: str):
    nets = []
    for expr in (f_expr, g_expr):
        net = Network()
        for pi in "abc":
            net.add_pi(pi)
        net.parse_node("f", expr, ["a", "b", "c"])
        net.add_po("f")
        nets.append(net)
    return nets


class TestBddEquivalence:
    def test_equivalent_rewrites(self):
        a, b = pair("ab + ab'", "a")
        assert networks_equivalent(a, b)

    def test_detects_inequivalence(self):
        a, b = pair("ab", "a + b")
        assert not networks_equivalent(a, b)

    def test_po_name_mismatch(self):
        a, b = pair("a", "a")
        b.pos = []
        b.parse_node("h", "a", ["a"])
        b.add_po("h")
        assert not networks_equivalent(a, b)

    def test_different_pi_sets_allowed_if_unused(self):
        a, b = pair("ab", "ab")
        b.add_pi("z")
        assert networks_equivalent(a, b)

    def test_output_bdds_shared_manager(self):
        a, b = pair("ab + c", "c + ba")
        order = ["a", "b", "c"]
        manager = BddManager(3)
        fa = network_output_bdds(a, order, manager)
        fb = network_output_bdds(b, order, manager)
        assert fa["f"] == fb["f"]

    def test_missing_pi_in_order_rejected(self):
        a, _ = pair("ab", "ab")
        with pytest.raises(ValueError):
            network_output_bdds(a, ["a"])

    def test_too_small_shared_manager_rejected(self):
        a, _ = pair("ab", "ab")
        with pytest.raises(ValueError):
            network_output_bdds(a, ["a", "b", "c"], BddManager(1))


class TestSimulation:
    def test_agrees_on_equivalent(self):
        a, b = pair("ab + ab'", "a")
        assert simulate_equivalent(a, b)

    def test_catches_inequivalence(self):
        a, b = pair("ab", "a + b")
        assert not simulate_equivalent(a, b, patterns=256)

    def test_requires_same_interface(self):
        a, b = pair("a", "a")
        b.add_pi("extra")
        assert not simulate_equivalent(a, b)


def wide_pair(n_pis: int):
    """Two structurally different, equivalent networks over *n_pis*
    inputs: an OR of all inputs, flat and as a chain."""
    names = [f"x{i}" for i in range(n_pis)]
    flat, chain = Network(), Network()
    for net in (flat, chain):
        for pi in names:
            net.add_pi(pi)
    flat.parse_node("f", " + ".join(names), names)
    previous = names[0]
    for i, pi in enumerate(names[1:]):
        node = f"c{i}"
        chain.parse_node(node, f"{previous} + {pi}", [previous, pi])
        previous = node
    chain.parse_node("f", previous, [previous])
    for net in (flat, chain):
        net.add_po("f")
    return flat, chain


class TestExactEquivalent:
    def test_auto_uses_bdds_up_to_the_threshold(self):
        a, b = wide_pair(verify.SAT_PI_THRESHOLD)
        verdict = exact_equivalent(a, b)
        assert verdict.backend == "bdd"
        assert verdict and verdict.status == "equal"

    def test_auto_uses_sat_above_the_threshold(self):
        a, b = wide_pair(verify.SAT_PI_THRESHOLD + 1)
        verdict = exact_equivalent(a, b)
        assert verdict.backend == "sat"
        assert verdict and verdict.status == "equal"

    @pytest.mark.parametrize("backend", ["bdd", "sat"])
    def test_difference_is_a_falsy_complete_verdict(self, backend):
        a, b = pair("ab", "a + b")
        verdict = exact_equivalent(a, b, backend=backend)
        assert verdict.backend == backend
        assert verdict.complete and not verdict
        assert verdict.status == "different"

    def test_unknown_is_never_equal(self):
        # Budget 0 stops the solver at its first conflict: the verdict
        # is unknown, and an unknown is falsy.
        a, b = wide_pair(4)
        verdict = exact_equivalent(a, b, backend="sat", conflict_budget=0)
        assert verdict.status == "unknown"
        assert not verdict.complete
        assert bool(verdict) is False

    def test_default_budget_is_read_at_call_time(self, monkeypatch):
        from repro.sat import check

        monkeypatch.setattr(check, "DEFAULT_CONFLICT_BUDGET", 0)
        a, b = wide_pair(4)
        assert exact_equivalent(a, b, backend="sat").status == "unknown"

    def test_unknown_backend_rejected(self):
        a, b = pair("a", "a")
        with pytest.raises(ValueError):
            exact_equivalent(a, b, backend="simulation")
