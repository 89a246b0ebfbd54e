"""Tests for sweep and eliminate."""

from hypothesis import given, settings

from repro.twolevel.cover import Cover
from repro.network.network import Network
from repro.network.ops import eliminate, node_value, sweep
from repro.network.verify import networks_equivalent
from tests.conftest import network_st


def chain_network() -> Network:
    net = Network("chain")
    for pi in "abc":
        net.add_pi(pi)
    net.parse_node("buf", "a", ["a"])
    net.parse_node("inv", "b'", ["b"])
    net.add_node("g", ["buf", "inv"], Cover.parse("ab", ["a", "b"]))
    cover = Cover.parse("a + b", ["a", "b"])
    net.add_node("f", ["g", "c"], cover)
    net.add_po("f")
    return net


class TestSweep:
    def test_inlines_buffers_and_inverters(self):
        net = chain_network()
        reference = net.copy()
        removed = sweep(net)
        assert removed >= 2
        assert "buf" not in net.nodes
        assert "inv" not in net.nodes
        assert networks_equivalent(reference, net)

    def test_removes_dangling(self):
        net = chain_network()
        net.parse_node("dead", "ab", ["a", "b"])
        sweep(net)
        assert "dead" not in net.nodes

    def test_keeps_po_buffers(self):
        net = Network()
        net.add_pi("a")
        net.parse_node("f", "a", ["a"])
        net.add_po("f")
        sweep(net)
        assert "f" in net.nodes

    @given(network_st())
    @settings(max_examples=25, deadline=None)
    def test_sweep_preserves_function(self, net):
        reference = net.copy()
        sweep(net)
        assert networks_equivalent(reference, net)


class TestEliminate:
    def test_value_formula(self):
        net = Network()
        for pi in "ab":
            net.add_pi(pi)
        net.parse_node("g", "ab", ["a", "b"])  # 2 literals
        net.parse_node("f1", "g", ["g"])
        net.parse_node("f2", "g'", ["g"])
        net.add_po("f1")
        net.add_po("f2")
        # 2 uses, 2 literals: value = 2*2 - 2 - 2 = 0.
        assert node_value(net, "g") == 0

    def test_eliminate_zero_collapses_single_fanout(self):
        net = Network()
        for pi in "abc":
            net.add_pi(pi)
        net.parse_node("g", "ab", ["a", "b"])
        net.parse_node("f", "g + c", ["g", "c"])
        net.add_po("f")
        reference = net.copy()
        count = eliminate(net, 0)
        assert count == 1
        assert "g" not in net.nodes
        assert networks_equivalent(reference, net)

    def test_negative_threshold_keeps_more(self):
        net = Network()
        for pi in "abcd":
            net.add_pi(pi)
        net.parse_node("g", "ab + cd", ["a", "b", "c", "d"])
        net.parse_node("f1", "g", ["g"])
        net.parse_node("f2", "g", ["g"])
        net.parse_node("f3", "g", ["g"])
        for po in ("f1", "f2", "f3"):
            net.add_po(po)
        # value = 3*4 - 3 - 4 = 5 > 0: never eliminated at 0.
        assert eliminate(net, 0) == 0
        assert "g" in net.nodes

    def test_large_threshold_collapses_everything_collapsible(self):
        net = chain_network()
        reference = net.copy()
        eliminate(net, 1000)
        assert len(net.internal_nodes()) == 1
        assert networks_equivalent(reference, net)

    @given(network_st())
    @settings(max_examples=25, deadline=None)
    def test_eliminate_preserves_function(self, net):
        reference = net.copy()
        eliminate(net, 0)
        assert networks_equivalent(reference, net)
