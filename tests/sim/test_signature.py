"""Signature simulator: full simulation and incremental maintenance.

The key invariant (ISSUE satellite): after any network mutation,
``refresh`` must leave the simulator bit-for-bit identical to a
from-scratch :class:`SignatureSimulator` over the mutated network.
"""

import pytest

from repro.bench.suite import build_benchmark
from repro.core.config import BASIC, EXTENDED
from repro.core.division import apply_division, divide_node_pair
from repro.core.extended import (
    build_vote_table,
    choose_core_divisor,
    decompose_divisor,
)
from repro.sim.signature import SignatureSimulator


def assert_sims_equal(incremental, fresh):
    assert incremental.signatures == fresh.signatures
    assert set(incremental.node_generation) == set(fresh.node_generation)


def test_matches_network_simulate():
    network = build_benchmark("cmp6")
    sim = SignatureSimulator(network, patterns=128, seed=3)
    values = network.simulate(sim.stimulus(), width=128)
    for name, sig in sim.signatures.items():
        assert values[name] == sig


def test_deterministic_across_instances():
    a = SignatureSimulator(build_benchmark("rnd1"), patterns=64, seed=9)
    b = SignatureSimulator(build_benchmark("rnd1"), patterns=64, seed=9)
    assert a.signatures == b.signatures
    c = SignatureSimulator(build_benchmark("rnd1"), patterns=64, seed=10)
    assert a.signatures != c.signatures


def _first_division(network, config):
    """The first accepted basic division on *network* (skip-free)."""
    for f in [n.name for n in network.internal_nodes()]:
        for d in [n.name for n in network.internal_nodes()]:
            if f == d:
                continue
            result = divide_node_pair(network, f, d, config)
            if result is not None:
                return result
    pytest.skip("no division opportunity in fixture")


def test_incremental_after_apply_division():
    network = build_benchmark("rnd3")
    sim = SignatureSimulator(network, patterns=256, seed=1)
    result = _first_division(network, BASIC)
    apply_division(network, result)
    sim.refresh([result.f_name])
    fresh = SignatureSimulator(network, patterns=256, seed=1)
    assert_sims_equal(sim, fresh)


def test_incremental_after_chain_of_divisions():
    network = build_benchmark("rnd1")
    sim = SignatureSimulator(network, patterns=256, seed=1)
    applied = 0
    names = [n.name for n in network.internal_nodes()]
    for f in names:
        if f not in network.nodes:
            continue
        for d in names:
            if d == f or d not in network.nodes:
                continue
            result = divide_node_pair(network, f, d, BASIC)
            if result is None:
                continue
            apply_division(network, result)
            sim.refresh([f])
            applied += 1
            break
        if applied >= 3:
            break
    assert applied > 0
    assert_sims_equal(sim, SignatureSimulator(network, patterns=256, seed=1))


def test_incremental_after_decompose_divisor():
    network = build_benchmark("rnd3")
    sim = SignatureSimulator(network, patterns=256, seed=1)
    names = [n.name for n in network.internal_nodes()]
    for f in names:
        table = build_vote_table(
            network, f, [d for d in names if d != f], EXTENDED
        )
        choice = choose_core_divisor(table, EXTENDED)
        if choice is None:
            continue
        d_cubes = table.divisor_cubes[choice.divisor_name].cubes
        if len(choice.cube_indices) == len(d_cubes):
            continue  # whole-divisor choice: nothing to decompose
        core = decompose_divisor(
            network, choice.divisor_name, choice.cube_indices
        )
        count = sim.refresh([choice.divisor_name, core])
        assert count > 0  # the new core node must be picked up
        assert_sims_equal(
            sim, SignatureSimulator(network, patterns=256, seed=1)
        )
        return
    pytest.skip("no decomposition opportunity in fixture")


def test_refresh_drops_removed_nodes():
    network = build_benchmark("rnd3")
    sim = SignatureSimulator(network, patterns=256, seed=1)
    result = _first_division(network, BASIC)
    apply_division(network, result)
    network.sweep_dangling()
    sim.refresh([result.f_name])
    assert set(sim.signatures) == set(network.nodes)
    assert_sims_equal(sim, SignatureSimulator(network, patterns=256, seed=1))


def test_refresh_tracks_po_function_changes():
    network = build_benchmark("cmp6")
    sim = SignatureSimulator(network, patterns=256, seed=1)
    before = {po: sim.signatures[po] for po in network.pos}

    # A sound rewrite keeps every PO signature.
    result = _first_division(network, BASIC)
    apply_division(network, result)
    sim.refresh([result.f_name])
    assert {po: sim.signatures[po] for po in network.pos} == before

    # Setting a PO that is not constant zero on the sampled patterns
    # to zero changes its signature, as a fresh simulation sees it.
    from repro.twolevel.cover import Cover

    for node in network.internal_nodes():
        if node.name in network.pos and sim.signatures[node.name] != 0:
            node.set_function([], Cover.zero(0))
            sim.refresh([node.name])
            assert sim.signatures[node.name] == 0
            assert_sims_equal(
                sim, SignatureSimulator(network, patterns=256, seed=1)
            )
            return
    pytest.skip("no suitable PO in fixture")


def test_refresh_stops_when_values_stabilize():
    network = build_benchmark("cmp6")
    sim = SignatureSimulator(network, patterns=256, seed=1)
    # A no-op "mutation" re-evaluates the root but nothing downstream.
    root = next(
        n.name for n in network.internal_nodes() if network.fanouts()[n.name]
    )
    count = sim.refresh([root])
    assert count == 1
