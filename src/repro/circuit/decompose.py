"""Decomposition of network nodes into two-level AND–OR gate regions.

This realizes the paper's first step: "decompose each node's internal
sum-of-product form into two-level AND and OR gates".  The circuit then
has alternating levels of ANDs and ORs, which is what lets the same
machinery run substitution in both SOP and POS flavours.

Gate naming convention for node ``f``:

* ``f`` — the node's output gate (an OR over its cube gates),
* ``f.c0``, ``f.c1``, … — one AND gate per multi-literal cube.

Single-literal cubes feed the OR directly (no AND gate); single-cube
nodes become one AND gate named ``f`` itself.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.twolevel.cover import Cover
from repro.circuit.circuit import Circuit
from repro.circuit.gate import Gate, GateKind
from repro.network.network import Network
from repro.network.node import Node


def cube_gate_inputs(node: Node, cube) -> List[Tuple[str, bool]]:
    """The phased input edges of a cube's AND gate."""
    return [(node.fanins[v], phase) for v, phase in cube.literals()]


def node_region_gates(node: Node, prefix: str = "") -> List[Gate]:
    """Two-level gates computing *node* from its fanin signals.

    *prefix* lets callers namespace the gates (used when the same node
    appears in several analysis circuits).  The output gate is always
    named ``prefix + node.name``.
    """
    if node.cover is None:
        raise ValueError("primary inputs have no gate region")
    out_name = prefix + node.name
    cover = node.cover
    if cover.is_zero():
        return [Gate(out_name, GateKind.CONST0)]
    if cover.is_one_cube():
        return [Gate(out_name, GateKind.CONST1)]

    gates: List[Gate] = []
    if cover.num_cubes() == 1:
        gates.append(
            Gate(out_name, GateKind.AND, cube_gate_inputs(node, cover[0]))
        )
        return gates

    or_inputs: List[Tuple[str, bool]] = []
    for i, cube in enumerate(cover.cubes):
        literals = cube_gate_inputs(node, cube)
        if len(literals) == 1:
            or_inputs.append(literals[0])
        else:
            cube_name = f"{out_name}.c{i}"
            gates.append(Gate(cube_name, GateKind.AND, literals))
            or_inputs.append((cube_name, True))
    gates.append(Gate(out_name, GateKind.OR, or_inputs))
    return gates


def network_to_circuit(network: Network) -> Circuit:
    """Decompose the whole network into a two-level-per-node circuit."""
    circuit = Circuit(network.name)
    for name in network.topo_order():
        node = network.nodes[name]
        if node.is_pi:
            circuit.add_pi(name)
        else:
            for gate in node_region_gates(node):
                circuit.add_gate(gate)
    return circuit
