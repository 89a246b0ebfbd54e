"""Pickle round-trips for everything the process pool ships.

The parallel engine pickles a (network, config, signature-snapshot)
payload into each worker and pickles :class:`DivisionResult`-bearing
outcomes back.  Every type on that wire must survive a round-trip at
*every* protocol — the ``__slots__`` classes (Cube, Cover, Node) need
explicit ``__getstate__``/``__setstate__`` for protocols 0 and 1.
"""

import pickle

import pytest

from repro.bench.generators import planted_network
from repro.core.config import BASIC, EXTENDED_GDC, DivisionConfig
from repro.core.division import DivisionResult, divide_node_pair
from repro.network.blif import to_blif_str
from repro.network.network import Network
from repro.network.node import Node
from repro.parallel.worker import PairOutcome, make_payload
from repro.sim.signature import SignatureSimulator
from repro.twolevel.cover import Cover
from repro.twolevel.cube import Cube

PROTOCOLS = list(range(pickle.HIGHEST_PROTOCOL + 1))


def _roundtrip(obj, protocol):
    return pickle.loads(pickle.dumps(obj, protocol))


@pytest.mark.parametrize("protocol", PROTOCOLS)
class TestRoundTrips:
    def test_cube(self, protocol):
        cube = Cube.from_literals([(0, True), (2, False), (5, True)])
        clone = _roundtrip(cube, protocol)
        assert clone == cube
        assert (clone.pos, clone.neg) == (cube.pos, cube.neg)

    def test_cover(self, protocol):
        cover = Cover(
            3,
            [
                Cube.from_literals([(0, True), (1, False)]),
                Cube.from_literals([(2, True)]),
            ],
        )
        clone = _roundtrip(cover, protocol)
        assert clone == cover
        assert clone.num_vars == cover.num_vars

    def test_node(self, protocol):
        node = Node(
            "g",
            ["a", "b"],
            Cover(2, [Cube.from_literals([(0, True), (1, True)])]),
        )
        clone = _roundtrip(node, protocol)
        assert clone.name == node.name
        assert clone.fanins == node.fanins
        assert clone.cover == node.cover

    def test_pi_node(self, protocol):
        node = Node("x", [], None)
        clone = _roundtrip(node, protocol)
        assert clone.is_pi and clone.cover is None

    def test_network(self, protocol):
        net = planted_network("pk", seed=3, n_pis=6, n_divisors=2,
                              n_targets=3)
        clone = _roundtrip(net, protocol)
        assert to_blif_str(clone) == to_blif_str(net)
        # Fresh names keep advancing from where the original left off.
        assert clone.fresh_name() == net.fresh_name()

    def test_division_config(self, protocol):
        for config in (BASIC, EXTENDED_GDC, DivisionConfig(n_jobs=3)):
            assert _roundtrip(config, protocol) == config

    def test_division_result(self, protocol):
        net = planted_network("dr", seed=5, n_pis=6, n_divisors=2,
                              n_targets=3)
        result = None
        nodes = [n.name for n in net.internal_nodes()]
        for f_name in nodes:
            for d_name in nodes:
                if f_name == d_name:
                    continue
                result = divide_node_pair(net, f_name, d_name, BASIC)
                if result is not None:
                    break
            if result is not None:
                break
        assert result is not None, "planted network must divide somewhere"
        clone = _roundtrip(result, protocol)
        assert isinstance(clone, DivisionResult)
        assert clone == result

    def test_pair_outcome(self, protocol):
        outcome = PairOutcome("f", "d", False, 4, 2, None)
        clone = _roundtrip(outcome, protocol)
        assert clone == outcome

    def test_signature_snapshot(self, protocol):
        net = planted_network("sig", seed=9, n_pis=6, n_divisors=2,
                              n_targets=3)
        sim = SignatureSimulator(net, patterns=64)
        snapshot = _roundtrip(sim.snapshot(), protocol)
        clone = SignatureSimulator.from_snapshot(net, snapshot)
        for node in net.internal_nodes():
            assert clone.signature(node.name) == sim.signature(node.name)
        assert clone.nodes_resimulated == 0


def test_worker_payload_is_self_contained():
    """The pool payload must unpickle in a fresh interpreter state —
    no references back to the parent's live network."""
    net = planted_network("pl", seed=13, n_pis=6, n_divisors=2,
                          n_targets=3)
    sim = SignatureSimulator(net, patterns=64)
    payload = make_payload(net, BASIC, sim.snapshot())
    assert isinstance(payload, bytes)
    network, config, snapshot, trace = pickle.loads(payload)
    assert network is not net
    assert to_blif_str(network) == to_blif_str(net)
    assert config == BASIC
    assert snapshot["signatures"].keys() == sim.snapshot()["signatures"].keys()
    # Tracing defaults to off in the payload; workers must not build
    # live tracers unless the main process armed them.
    assert trace is False
