"""Tests for basic Boolean division via RAR."""

import pytest
from hypothesis import given, settings

from repro.core import division
from repro.core.config import BASIC, EXTENDED_GDC, DivisionConfig
from repro.core.division import (
    apply_division,
    boolean_divide,
    divide_node_pair,
)
from repro.network.factor import network_literals
from repro.network.network import Network
from repro.network.verify import networks_equivalent
from tests.conftest import assert_equivalent


def paper() -> Network:
    net = Network("paper")
    for pi in "abcd":
        net.add_pi(pi)
    net.parse_node("g", "b + c", ["b", "c"])
    net.parse_node("f", "ab + ac + ad' + a'b'c'd", ["a", "b", "c", "d"])
    net.add_po("f")
    net.add_po("g")
    return net


class TestBasicSop:
    def test_paper_example_positive_phase(self):
        net = paper()
        result = boolean_divide(net, "f", "g", BASIC, phase=True, form="sop")
        assert result is not None
        assert result.gain >= 1
        assert result.wires_removed >= 2
        reference = paper()
        apply_division(net, result)
        assert_equivalent(reference, net)
        # ab + ac collapsed to a·g.
        assert "g" in net.nodes["f"].fanins

    def test_paper_example_complement_phase(self):
        net = paper()
        result = boolean_divide(net, "f", "g", BASIC, phase=False, form="sop")
        assert result is not None
        # a'b'c'd = a'd·g'
        reference = paper()
        apply_division(net, result)
        assert_equivalent(reference, net)

    def test_gain_accounting(self):
        net = paper()
        before = network_literals(net)
        result = boolean_divide(net, "f", "g", BASIC)
        apply_division(net, result)
        assert network_literals(net) == before - result.gain

    def test_no_region_no_division(self):
        net = Network()
        for pi in "abcd":
            net.add_pi(pi)
        net.parse_node("g", "b + c", ["b", "c"])
        net.parse_node("f", "ad", ["a", "d"])
        net.add_po("f")
        net.add_po("g")
        assert boolean_divide(net, "f", "g", BASIC) is None

    def test_algebraically_invisible_division(self):
        # f = ab + b'c = (b + c)(a + b'): weak division fails, Boolean
        # division succeeds.
        net = Network()
        for pi in "abc":
            net.add_pi(pi)
        net.parse_node("g", "b + c", ["b", "c"])
        net.parse_node("f", "ab + b'c", ["a", "b", "c"])
        net.add_po("f")
        net.add_po("g")
        from repro.network.algebraic import weak_division
        from repro.twolevel.cover import Cover

        divisor = Cover.parse("b + c", ["a", "b", "c"])
        quotient, _ = weak_division(net.nodes["f"].cover, divisor)
        assert quotient.is_zero()

        result = boolean_divide(net, "f", "g", BASIC)
        assert result is not None
        reference = net.copy()
        apply_division(net, result)
        assert_equivalent(reference, net)

    def test_constant_nodes_rejected(self):
        net = Network()
        net.add_pi("a")
        net.parse_node("k", "0", [])
        net.parse_node("f", "a", ["a"])
        net.add_po("f")
        net.add_po("k")
        assert boolean_divide(net, "f", "k", BASIC) is None
        assert boolean_divide(net, "k", "f", BASIC) is None

    def test_pi_dividend_rejected(self):
        net = paper()
        assert boolean_divide(net, "a", "g", BASIC) is None

    def test_invalid_form_rejected(self):
        net = paper()
        with pytest.raises(ValueError):
            boolean_divide(net, "f", "g", BASIC, form="nonsense")

    def test_region_size_guard(self, monkeypatch):
        monkeypatch.setattr(division, "MAX_REGION_CUBES", 2)
        net = paper()
        assert boolean_divide(net, "f", "g", BASIC) is None


class TestPos:
    def test_pos_division(self):
        # f = (a+b)(c+d) as SOP; dividing in POS form by g = a+b gives
        # f = g(c+d).
        net = Network()
        for pi in "abcd":
            net.add_pi(pi)
        net.parse_node("g", "a + b", ["a", "b"])
        net.parse_node("f", "ac + ad + bc + bd", ["a", "b", "c", "d"])
        net.add_po("f")
        net.add_po("g")
        result = boolean_divide(net, "f", "g", BASIC, phase=True, form="pos")
        assert result is not None
        assert result.gain >= 1
        reference = net.copy()
        apply_division(net, result)
        assert_equivalent(reference, net)
        assert "g" in net.nodes["f"].fanins

    def test_pos_is_invisible_to_sop(self):
        net = Network()
        for pi in "abcd":
            net.add_pi(pi)
        net.parse_node("g", "a + b", ["a", "b"])
        net.parse_node("f", "ac + ad + bc + bd", ["a", "b", "c", "d"])
        net.add_po("f")
        net.add_po("g")
        sop = boolean_divide(net, "f", "g", BASIC, phase=True, form="sop")
        pos = boolean_divide(net, "f", "g", BASIC, phase=True, form="pos")
        sop_gain = sop.gain if sop else 0
        assert pos is not None and pos.gain >= max(sop_gain, 1)


class TestDivideNodePair:
    def test_picks_best_variant(self, paper_network):
        result = divide_node_pair(paper_network, "f", "g", BASIC)
        assert result is not None
        assert result.gain > 0

    def test_none_when_no_gain(self):
        net = Network()
        for pi in "abcd":
            net.add_pi(pi)
        net.parse_node("g", "a + b", ["a", "b"])
        net.parse_node("f", "cd", ["c", "d"])
        net.add_po("f")
        net.add_po("g")
        assert divide_node_pair(net, "f", "g", BASIC) is None

    def test_variants_respect_config(self, paper_network):
        config = DivisionConfig(try_complement=False, try_pos=False)
        result = divide_node_pair(paper_network, "f", "g", config)
        # Only SOP+ attempted; still finds the ab+ac -> a·g rewrite.
        assert result is not None
        assert result.phase is True and result.form == "sop"


from hypothesis import strategies as st


class TestDivisionProperties:
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_division_always_preserves_function(self, seed):
        from repro.bench.generators import planted_network

        net = planted_network("p", seed=seed, n_pis=6, n_divisors=2, n_targets=2)
        reference = net.copy()
        names = [n.name for n in net.internal_nodes()]
        for f_name in names:
            for d_name in names:
                if f_name == d_name:
                    continue
                if f_name in net.transitive_fanin(d_name):
                    continue
                result = divide_node_pair(net, f_name, d_name, BASIC)
                if result is not None:
                    apply_division(net, result)
        assert networks_equivalent(reference, net)


class TestOracleDc:
    def test_oracle_finds_at_least_what_implications_find(self):
        from repro.core.config import ORACLE

        net = paper()
        gdc_result = boolean_divide(net, "f", "g", EXTENDED_GDC)
        oracle_result = boolean_divide(net, "f", "g", ORACLE)
        assert oracle_result is not None
        assert (
            oracle_result.wires_removed + oracle_result.cubes_removed
            >= gdc_result.wires_removed + gdc_result.cubes_removed
        )

    def test_oracle_rewrites_preserve_function(self):
        from repro.core.config import ORACLE
        from repro.core.substitution import substitute_network
        from repro.bench.generators import planted_network

        for seed in (5, 17):
            net = planted_network(
                "p", seed=seed, n_pis=6, n_divisors=2, n_targets=2
            )
            reference = net.copy()
            substitute_network(net, ORACLE)
            assert networks_equivalent(reference, net)

    def test_unknown_oracle_verdict_keeps_the_wire(self):
        # On this network the oracle proves removals the implications
        # miss; with a zero SAT conflict budget every oracle verdict is
        # unknown, no wire goes on it, and the run is EXTENDED_GDC's.
        import dataclasses

        from repro.bench.generators import planted_network
        from repro.core.config import ORACLE
        from repro.core.substitution import substitute_network
        from repro.network.blif import to_blif_str

        starved = dataclasses.replace(
            ORACLE, verify_backend="sat", sat_conflict_budget=0
        )
        outputs = {}
        for label, config in (
            ("gdc", EXTENDED_GDC), ("oracle", ORACLE), ("starved", starved)
        ):
            net = planted_network(
                "p", seed=3, n_pis=6, n_divisors=2, n_targets=3
            )
            substitute_network(net, config)
            outputs[label] = to_blif_str(net)
        assert outputs["oracle"] != outputs["gdc"]
        assert outputs["starved"] == outputs["gdc"]

    def test_oracle_verdicts_reach_the_trace_and_the_stats(self):
        # Every oracle check runs under a ``verify`` span, and its SAT
        # solves are counted in the run's stats; tracing changes no
        # output.
        import dataclasses

        from repro.bench.suite import build_benchmark
        from repro.core.config import ORACLE
        from repro.core.substitution import substitute_network
        from repro.network.blif import to_blif_str
        from repro.obs.tracer import Tracer
        from repro.scripts.flows import SCRIPTS

        def run(backend, tracer=None):
            net = build_benchmark("rnd1")
            SCRIPTS["A"](net)
            config = dataclasses.replace(ORACLE, verify_backend=backend)
            stats = substitute_network(net, config, tracer=tracer)
            return to_blif_str(net), stats

        plain, _ = run("sat")
        for backend, kind in (("sat", "sat"), ("auto", "exhaustive")):
            tracer = Tracer()
            blif, stats = run(backend, tracer)
            assert blif == plain
            by_id = {event["id"]: event for event in tracer.events}
            checks = [
                event for event in tracer.events
                if event["kind"] == "verify"
            ]
            solves = [
                event for event in tracer.events
                if event["kind"] == "sat_solve"
            ]
            assert checks
            for event in checks:
                attrs = event["attrs"]
                assert attrs["check"] == "oracle"
                assert attrs["backend"] == kind
                assert attrs["status"] in ("equal", "different")
                assert attrs["ok"] == (attrs["status"] == "equal")
                assert {"f", "d"} <= set(attrs)
            assert len(solves) == stats.sat_solves
            assert all(
                by_id[event["parent"]]["kind"] == "verify"
                for event in solves
            )
            if backend == "sat":
                assert stats.sat_solves == len(checks) > 0


class TestFaninLiteralDivision:
    """Re-dividing a node by one of its existing fanins simplifies it
    in place using implications through the fanin's logic — the
    SDC-style rewrites of the GDC configuration."""

    def _network(self):
        net = Network()
        for pi in "ab":
            net.add_pi(pi)
        net.parse_node("m", "ab", ["a", "b"])
        net.parse_node("M", "a + b", ["a", "b"])
        net.parse_node("t", "mM + m'M'", ["m", "M"])
        net.add_po("t")
        return net

    def test_positive_literal_division(self):
        net = self._network()
        result = boolean_divide(net, "t", "m", EXTENDED_GDC)
        assert result is not None
        assert result.wires_removed >= 1  # M dropped from the mM cube
        reference = net.copy()
        apply_division(net, result)
        assert networks_equivalent(reference, net)

    def test_full_simplification_through_pass(self):
        from repro.core.substitution import substitute_network

        net = self._network()
        reference = net.copy()
        substitute_network(net, EXTENDED_GDC)
        assert networks_equivalent(reference, net)
        # t = mM + m'M' collapses to m + M' (m implies M).
        assert net.nodes["t"].sop_literals() == 2

    def test_local_mode_cannot_see_it(self):
        # Without whole-circuit implications the correlation between
        # m and M is invisible, so the basic config leaves t alone.
        from repro.core.config import BASIC
        from repro.core.substitution import substitute_network

        net = self._network()
        substitute_network(net, BASIC)
        assert net.nodes["t"].sop_literals() == 4

    def test_expanded_cover_still_used_when_literal_fails(self, paper_network):
        # After ab+ac -> a·g, the complement phase must still divide
        # a'b'c'd by g's expanded complement (b'c'), even though g is
        # now a fanin of f.
        from repro.core.config import BASIC
        from repro.core.substitution import substitute_network

        reference = paper_network.copy()
        stats = substitute_network(paper_network, BASIC)
        assert stats.accepted >= 2
        assert stats.literals_after == 8
        assert networks_equivalent(reference, paper_network)
