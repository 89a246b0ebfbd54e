"""Tests for equivalence checking."""

import pytest

from repro.bdd import BddManager
from repro.network.network import Network
from repro.network import verify
from repro.network.verify import (
    checked_equivalent,
    exact_equivalent,
    exhaustive_equivalent,
    network_output_bdds,
    networks_equivalent,
)
from repro.obs.tracer import Tracer
from repro.twolevel.cover import Cover


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
    def test_auto_enumerates_up_to_the_threshold(self):
        a, b = wide_pair(verify.EXHAUSTIVE_PI_LIMIT)
        verdict = exact_equivalent(a, b)
        assert verdict.backend == "exhaustive"
        assert verdict and verdict.status == "equal"

    def test_auto_uses_sat_above_the_threshold(self):
        a, b = wide_pair(verify.EXHAUSTIVE_PI_LIMIT + 1)
        verdict = exact_equivalent(a, b)
        assert verdict.backend == "sat"
        assert verdict and verdict.status == "equal"

    @pytest.mark.parametrize("expected", ["exhaustive", "sat"])
    def test_difference_is_a_falsy_complete_verdict(self, expected, force_sat):
        if expected == "sat":
            force_sat()
        a, b = pair("ab", "a + b")
        verdict = exact_equivalent(a, b)
        assert verdict.backend == expected
        assert verdict.complete and not verdict
        assert verdict.status == "different"
        witness = verdict.counterexample
        assert a.evaluate(witness)["f"] != b.evaluate(witness)["f"]

    def test_unknown_is_never_equal(self, force_sat):
        # Budget 0 stops the solver at its first conflict: the verdict
        # is unknown, and an unknown is falsy.
        force_sat(0)
        a, b = wide_pair(4)
        verdict = exact_equivalent(a, b)
        assert verdict.status == "unknown"
        assert not verdict.complete
        assert bool(verdict) is False

    def test_exhaustive_limit_is_read_at_call_time(self, monkeypatch):
        a, b = wide_pair(4)
        assert exact_equivalent(a, b).backend == "exhaustive"
        monkeypatch.setattr(verify, "EXHAUSTIVE_PI_LIMIT", 3)
        assert exact_equivalent(a, b).backend == "sat"

    def test_default_budget_is_read_at_call_time(self, monkeypatch):
        from repro.sat import check

        a, b = wide_pair(4)
        monkeypatch.setattr(verify, "EXHAUSTIVE_PI_LIMIT", 3)
        assert exact_equivalent(a, b).status == "equal"
        monkeypatch.setattr(check, "DEFAULT_CONFLICT_BUDGET", 0)
        assert exact_equivalent(a, b).status == "unknown"

    @pytest.mark.parametrize(
        "keyword", [{"backend": "sat"}, {"conflict_budget": 0}],
        ids=["backend", "conflict_budget"],
    )
    def test_backend_and_budget_are_not_parameters(self, keyword):
        # The PI count picks the backend, and a solve always runs under
        # the module's default budget.
        a, b = pair("a", "a")
        with pytest.raises(TypeError):
            exact_equivalent(a, b, **keyword)

    @pytest.mark.parametrize("name", sorted(verify.CHECK_OWNED_ATTRS))
    def test_checked_check_refuses_the_attributes_it_sets(self, name):
        # A caller's backend or budget would be ignored, and its
        # status or ok overwritten by the verdict's: the traced check
        # refuses each before it opens a span or proves anything.
        tracer = Tracer()
        a, b = pair("a", "a")
        with pytest.raises(TypeError, match=name):
            checked_equivalent(a, b, tracer, check="ledger", **{name: 0})
        assert tracer.events == []
        verdict = checked_equivalent(a, b, tracer, check="ledger")
        assert verdict.status == "equal"
        assert [event["attrs"] for event in tracer.events] == [
            {"check": "ledger", "backend": "exhaustive", "status": "equal",
             "ok": True}
        ]

    @pytest.mark.parametrize("expected", ["exhaustive", "sat"])
    def test_different_output_names_are_different(self, expected, force_sat):
        if expected == "sat":
            force_sat()
        a, b = pair("a", "a")
        b.pos = []
        b.parse_node("h", "a", ["a"])
        b.add_po("h")
        verdict = exact_equivalent(a, b)
        assert verdict.status == "different"
        assert verdict.counterexample is None

    @pytest.mark.parametrize("expected", ["exhaustive", "sat"])
    def test_input_sets_that_differ(self, expected, force_sat):
        # An input only one side has is equal if unused, and a
        # difference the witness can replay if used.
        if expected == "sat":
            force_sat()
        a, b = pair("ab", "ab")
        b.add_pi("z")
        assert exact_equivalent(a, b).status == "equal"
        c = Network()
        for pi in "abz":
            c.add_pi(pi)
        c.parse_node("f", "a b z", ["a", "b", "z"])
        c.add_po("f")
        verdict = exact_equivalent(a, c)
        assert verdict.backend == expected
        assert verdict.status == "different"
        assert sorted(verdict.counterexample) == ["a", "b", "c", "z"]
        assert replays(a, c, verdict.counterexample)


def one_pattern_pair(n_pis: int, pattern: int, differ: bool = True):
    """An OR of *n_pis* inputs, flat in ``a`` and as a chain in ``b``;
    ``b``'s output is XORed with the minterm of *pattern* when *differ*
    and with constant 0 otherwise.  PI ``i`` is named ``xII``, so the
    name order is the index order."""
    names = [f"x{i:02d}" for i in range(n_pis)]
    a, b = Network("a"), Network("b")
    for net in (a, b):
        for pi in names:
            net.add_pi(pi)
    a.parse_node("f", " + ".join(names), names)
    previous = names[0]
    for i, pi in enumerate(names[1:]):
        b.parse_node(f"c{i}", f"{previous} + {pi}", [previous, pi])
        previous = f"c{i}"
    if differ:
        minterm = "".join(
            name if pattern >> i & 1 else name + "'"
            for i, name in enumerate(names)
        )
        b.parse_node("m", minterm, names)
    else:
        b.add_node("m", [], Cover.zero(0))
    b.parse_node("f", f"{previous} m' + {previous}' m", [previous, "m"])
    for net in (a, b):
        net.add_po("f")
    return a, b, names


def replays(a, b, witness):
    values_a = a.evaluate({pi: witness.get(pi, False) for pi in a.pis})
    values_b = b.evaluate({pi: witness.get(pi, False) for pi in b.pis})
    return any(values_a[po] != values_b[po] for po in a.pos)


class TestExhaustiveEquivalent:
    """The enumeration backend on its own: chunk boundaries, and the
    networks where sharing and PI sets are easy to get wrong."""

    @pytest.mark.parametrize("n_pis", [17, 18, 20])
    @pytest.mark.parametrize("place", ["first", "middle", "last"])
    def test_one_differing_pattern_in_any_chunk(self, n_pis, place):
        # A chunk is 2**16 patterns; at 17 PIs the middle chunk is the
        # second of two, but not all ones.
        chunks = 1 << (n_pis - 16)
        pattern = {
            "first": 0b1011,
            "middle": (chunks // 2) << 16 | 0x5A5A,
            "last": (1 << n_pis) - 1,
        }[place]
        a, b, names = one_pattern_pair(n_pis, pattern)
        verdict = exhaustive_equivalent(a, b)
        assert verdict.backend == "exhaustive"
        assert verdict.status == "different"
        assert verdict.counterexample == {
            name: bool(pattern >> i & 1) for i, name in enumerate(names)
        }
        assert replays(a, b, verdict.counterexample)
        a, b, _ = one_pattern_pair(n_pis, pattern, differ=False)
        assert exhaustive_equivalent(a, b).status == "equal"

    def test_lowest_differing_pattern_is_reported(self):
        a, b = pair("ab", "a + b")
        # Patterns 1 (a) and 2 (b) differ; bit i of the pattern is the
        # i-th PI by name.
        assert exhaustive_equivalent(a, b).counterexample == {
            "a": True, "b": False, "c": False,
        }

    def test_constant_networks_without_inputs(self):
        def constant(value, via_buffer=False):
            net = Network()
            cover = Cover.one(0) if value else Cover.zero(0)
            if via_buffer:
                net.add_node("k", [], cover)
                net.parse_node("f", "k", ["k"])
            else:
                net.add_node("f", [], cover)
            net.add_po("f")
            return net

        assert exhaustive_equivalent(constant(1), constant(1, True))
        verdict = exhaustive_equivalent(constant(1), constant(0, True))
        assert verdict.status == "different"
        assert verdict.counterexample == {}

    def test_output_that_is_an_input(self):
        a, b = Network("a"), Network("b")
        for net in (a, b):
            net.add_pi("p")
            net.add_pi("q")
            net.add_po("p")
        assert exhaustive_equivalent(a, b).status == "equal"
        # ``p`` is an input of a but a buffer of ``q`` in c.
        c = Network("c")
        c.add_pi("q")
        c.parse_node("p", "q", ["q"])
        c.add_po("p")
        verdict = exhaustive_equivalent(a, c)
        assert verdict.status == "different"
        assert verdict.counterexample == {"p": True, "q": False}
        assert replays(a, c, verdict.counterexample)

    def test_input_sets_that_differ(self):
        a, b = pair("ab", "ab")
        b.add_pi("z")
        assert exhaustive_equivalent(a, b).status == "equal"
        c = Network()
        for pi in "abz":
            c.add_pi(pi)
        c.parse_node("f", "a b z", ["a", "b", "z"])
        c.add_po("f")
        verdict = exhaustive_equivalent(a, c)
        assert verdict.status == "different"
        assert sorted(verdict.counterexample) == ["a", "b", "c", "z"]
        assert replays(a, c, verdict.counterexample)

    def test_shared_outputs_need_no_simulation(self, monkeypatch):
        def simulated(*args):
            raise AssertionError("a shared output was simulated")

        a, _ = pair("ab + c", "ab + c")
        monkeypatch.setattr(verify, "eval_cover_packed", simulated)
        assert exhaustive_equivalent(a, a.copy()).status == "equal"
