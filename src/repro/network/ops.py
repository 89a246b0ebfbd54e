"""Structural network operations: sweep and value-based eliminate."""

from __future__ import annotations

from typing import List

from repro.network.factor import factored_literals
from repro.network.network import Network


def sweep(network: Network) -> int:
    """Clean the network:

    * propagate constant nodes into their fanouts,
    * inline buffers and inverters,
    * remove dangling logic.

    Returns the number of nodes removed.
    """
    removed = 0
    changed = True
    while changed:
        changed = False
        for name in list(network.nodes):
            node = network.nodes.get(name)
            if node is None or node.is_pi or name in network.pos:
                continue
            if node.is_constant() or node.is_buffer() or node.is_inverter():
                fanouts = network.fanouts()[name]
                if not fanouts:
                    continue
                for fanout in fanouts:
                    network.substitute_function(fanout, name)
                if not network.fanouts()[name]:
                    network.remove_node(name)
                    removed += 1
                    changed = True
    removed += network.sweep_dangling()
    return removed


def node_value(network: Network, name: str) -> int:
    """SIS's eliminate *value*: the literal cost of keeping the node.

    Collapsing a node with factored-literal count ``L`` into fanouts
    that reference it ``k`` times replaces ``k`` literals with roughly
    ``k·L`` literals while deleting the node's own ``L`` literals, so
    the saving from keeping it is ``value = k·L − k − L``.  SIS
    eliminates nodes whose value is at most the threshold.
    """
    node = network.nodes[name]
    if node.is_pi:
        raise ValueError("primary inputs have no eliminate value")
    lits = factored_literals(node.cover)
    uses = 0
    for fanout_name in network.fanouts()[name]:
        pos, neg = network.nodes[fanout_name].literal_occurrences(name)
        uses += pos + neg
    return uses * lits - uses - lits


def eliminate(network: Network, threshold: int = 0, max_fanin: int = 64) -> int:
    """Collapse every internal node whose value is <= *threshold*.

    Primary outputs are kept.  ``eliminate 0`` (the paper's Script A
    first step) collapses single-fanout nodes into their fanout to
    build complex gates; negative thresholds are stricter, large ones
    approach full collapsing.  Returns the number of nodes eliminated.
    *max_fanin* guards against collapse blow-up on wide cones.
    """
    eliminated = 0
    changed = True
    while changed:
        changed = False
        for name in network.topo_order():
            node = network.nodes.get(name)
            if node is None or node.is_pi or name in network.pos:
                continue
            fanouts = network.fanouts()[name]
            if not fanouts:
                continue
            if node_value(network, name) > threshold:
                continue
            if _collapse_too_wide(network, name, fanouts, max_fanin):
                continue
            network.collapse_into_fanouts(name)
            eliminated += 1
            changed = True
    network.sweep_dangling()
    return eliminated


def _collapse_too_wide(
    network: Network, name: str, fanouts: List[str], max_fanin: int
) -> bool:
    node = network.nodes[name]
    for fanout_name in fanouts:
        fanout = network.nodes[fanout_name]
        merged = set(fanout.fanins) - {name} | set(node.fanins)
        if len(merged) > max_fanin:
            return True
        # Also bound the cube blow-up of substituting an SOP in.
        estimated = fanout.num_cubes() * max(node.num_cubes(), 1)
        if estimated > 4096:
            return True
    return False
