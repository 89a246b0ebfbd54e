"""The circuit view of every suite benchmark, and its way back.

The ATPG passes (``network_redundancy_removal``, the GDC implications)
run on ``network_to_circuit``'s AND/OR gate regions and write results
back with ``node_cover_from_gates``.  Both directions are checked on
all 28 suite circuits: the gates compute every node of the network,
and each untouched region reads back as its node's function.
"""

import random

import pytest

from repro.bench.suite import benchmark_names, build_benchmark
from repro.circuit.decompose import network_to_circuit
from repro.circuit.mapback import (
    node_cover_from_gates,
    update_network_from_circuit,
)
from repro.network.verify import networks_equivalent

PATTERNS = 64


@pytest.mark.parametrize("name", benchmark_names())
def test_circuit_computes_every_node(name):
    net = build_benchmark(name)
    circuit = network_to_circuit(net)
    rng = random.Random(17)
    for _ in range(PATTERNS):
        assignment = {pi: rng.random() < 0.5 for pi in net.pis}
        expected = net.evaluate(assignment)
        values = circuit.evaluate(assignment)
        for node in net.internal_nodes():
            assert values[node.name] == expected[node.name], node.name


@pytest.mark.parametrize("name", benchmark_names())
def test_gate_regions_map_back_to_each_node(name):
    net = build_benchmark(name)
    circuit = network_to_circuit(net)
    for node in net.internal_nodes():
        fanins, cover = node_cover_from_gates(circuit, node.name)
        assert set(fanins) <= set(node.fanins), node.name
        var_map = [node.fanins.index(signal) for signal in fanins]
        rebuilt = cover.remap(var_map, len(node.fanins))
        assert rebuilt.equivalent(node.cover), node.name
    copy = net.copy()
    update_network_from_circuit(copy, circuit)
    assert networks_equivalent(net, copy)
