"""Seeded-random oracle tests for SDC/ODC computation.

The hand-built cases in ``test_dontcares.py`` pin the definitions;
these sweep deterministic random networks and check the don't-care
sets against exhaustive simulation — the strongest oracle available at
these sizes:

* every satisfiability don't-care pattern is truly unreachable;
* on every reachable pattern inside the observability don't-care set,
  the node's value provably cannot influence any primary output;
* ``full_simplify`` preserves equivalence and never grows the network;
* the sampled care-mask query, ``unobservable_patterns``, equals the
  full observability cover evaluated on the simulated patterns, bit for
  bit, on every internal node.
"""

from __future__ import annotations

import itertools

import pytest

from repro.network.dontcares import DontCareComputer, full_simplify
from repro.network.factor import network_literals
from repro.network.network import eval_cover_packed
from repro.network.verify import networks_equivalent
from repro.sim.signature import SignatureSimulator

from tests.conftest import random_network

SEEDS = list(range(200, 220))


def _pi_assignments(network):
    pis = network.pis
    for bits in itertools.product([False, True], repeat=len(pis)):
        yield dict(zip(pis, bits))


def _fanin_pattern(values, fanins) -> int:
    pattern = 0
    for index, fanin in enumerate(fanins):
        if values[fanin]:
            pattern |= 1 << index
    return pattern


@pytest.mark.parametrize("seed", SEEDS)
def test_sdc_patterns_are_unreachable(seed):
    network = random_network(seed, n_pis=4, n_nodes=5)
    computer = DontCareComputer(network)
    reachable = {name: set() for name in network.nodes}
    for assignment in _pi_assignments(network):
        values = network.evaluate(assignment)
        for node in network.internal_nodes():
            reachable[node.name].add(
                _fanin_pattern(values, node.fanins)
            )
    for node in network.internal_nodes():
        if node.cover is None or not node.fanins:
            continue
        sdc = computer.satisfiability_dc(node.name)
        for pattern in range(1 << len(node.fanins)):
            if sdc.evaluate(pattern):
                assert pattern not in reachable[node.name], (
                    f"SDC of {node.name} (seed {seed}) claims pattern "
                    f"{pattern:b} unreachable, but simulation hit it"
                )


@pytest.mark.parametrize("seed", SEEDS[:10])
def test_odc_patterns_never_influence_outputs(seed):
    network = random_network(seed, n_pis=4, n_nodes=5)
    computer = DontCareComputer(network)
    for node in network.internal_nodes():
        if node.cover is None or not node.fanins:
            continue
        if node.name in network.pos:
            continue  # flipping a PO is observable by definition
        odc = computer.observability_dc(node.name)
        if odc.is_zero():
            continue
        forced = {}
        for value in (False, True):
            copy = network.copy(f"forced{int(value)}")
            copy.replace_with_constant(node.name, value)
            forced[value] = copy
        for assignment in _pi_assignments(network):
            values = network.evaluate(assignment)
            pattern = _fanin_pattern(values, node.fanins)
            if not odc.evaluate(pattern):
                continue
            out0 = forced[False].evaluate(assignment)
            out1 = forced[True].evaluate(assignment)
            for po in network.pos:
                if po == node.name:
                    continue
                assert out0[po] == out1[po], (
                    f"ODC of {node.name} (seed {seed}) claims pattern "
                    f"{pattern:b} unobservable, but {po} flips"
                )


@pytest.mark.parametrize("seed", SEEDS)
def test_full_simplify_equivalent_and_never_grows(seed):
    network = random_network(seed, n_pis=4, n_nodes=5)
    reference = network.copy("reference")
    before = network_literals(network)
    improved = full_simplify(network)
    assert improved >= 0
    assert network_literals(network) <= before
    assert networks_equivalent(reference, network)


def test_random_population_exercises_nonempty_dc_sets():
    """Anti-vacuity: somewhere in the seed population there is at
    least one non-empty SDC set (else the oracle tests above prove
    nothing)."""
    found = 0
    for seed in SEEDS:
        network = random_network(seed, n_pis=4, n_nodes=5)
        computer = DontCareComputer(network)
        for node in network.internal_nodes():
            if node.cover is None or not node.fanins:
                continue
            if not computer.satisfiability_dc(node.name).is_zero():
                found += 1
    assert found > 0


def _sampled_networks(seed):
    """A narrow network (samples reach nearly every fanin minterm) and
    a wide one (samples leave reachable minterms unvisited)."""
    return (
        random_network(seed, n_pis=4, n_nodes=5),
        random_network(seed, n_pis=10, n_nodes=14),
    )


@pytest.mark.parametrize("patterns", [64, 256])
@pytest.mark.parametrize("seed", SEEDS[:10])
def test_sampled_unobservable_mask_matches_odc_cover(seed, patterns):
    for network in _sampled_networks(seed):
        computer = DontCareComputer(network)
        sim = SignatureSimulator(network, patterns=patterns, seed=seed)
        for node in network.internal_nodes():
            sigs = [sim.signatures[f] for f in node.fanins]
            expected = eval_cover_packed(
                computer.observability_dc(node.name), sigs, sim.mask
            )
            assert computer.unobservable_patterns(
                node.name, sigs, sim.mask
            ) == expected, f"{network.name} {node.name} at {patterns}"


def test_sampled_population_exercises_masks_and_pruning():
    """Anti-vacuity for the test above: some sampled mask is non-empty,
    and some node has a reachable fanin minterm no sample hits (the
    branch the sampled walk prunes)."""
    unobservable = pruned = 0
    for seed in SEEDS[:10]:
        for network in _sampled_networks(seed):
            computer = DontCareComputer(network)
            sim = SignatureSimulator(network, patterns=64, seed=seed)
            for node in network.internal_nodes():
                sigs = [sim.signatures[f] for f in node.fanins]
                if computer.unobservable_patterns(node.name, sigs, sim.mask):
                    unobservable += 1
                sdc = computer.satisfiability_dc(node.name)
                reachable = {
                    m
                    for m in range(1 << len(node.fanins))
                    if not sdc.evaluate(m)
                }
                sampled = {
                    sum(((sig >> p) & 1) << i for i, sig in enumerate(sigs))
                    for p in range(sim.num_patterns)
                }
                if reachable - sampled:
                    pruned += 1
    assert unobservable > 0
    assert pruned > 0
