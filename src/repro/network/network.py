"""The multilevel Boolean network DAG."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

from repro.twolevel.cube import Cube
from repro.twolevel.cover import Cover
from repro.twolevel.complement import complement
from repro.network.node import Node


def eval_cube_packed(cube: Cube, fanin_values: Sequence[int], mask: int) -> int:
    """Bit-parallel evaluation of one cube over packed fanin values.

    *fanin_values* holds one integer per cover variable whose bit ``k``
    is that variable's value in pattern ``k``; *mask* has one bit per
    packed pattern.  The result has bit ``k`` set iff the cube is 1
    under pattern ``k``.  The term never leaves *mask*, so the
    complement ``mask ^ value`` agrees with ``mask & ~value`` on it for
    any integer *value*.
    """
    term = mask
    pos = cube.pos
    support = pos | cube.neg
    while support:
        low = support & -support
        value = fanin_values[low.bit_length() - 1]
        term &= value if pos & low else mask ^ value
        if not term:
            break
        support ^= low
    return term


def eval_cover_packed(cover: Cover, fanin_values: Sequence[int], mask: int) -> int:
    """Bit-parallel evaluation of a SOP cover (OR of its cubes)."""
    acc = 0
    for cube in cover.cubes:
        acc |= eval_cube_packed(cube, fanin_values, mask)
        if acc == mask:
            break
    return acc


class Network:
    """A DAG of :class:`Node` objects with primary inputs and outputs.

    Nodes are stored in insertion order; all traversals are
    deterministic so experiment tables reproduce exactly.
    """

    def __init__(self, name: str = "network"):
        self.name = name
        self.nodes: Dict[str, Node] = {}
        self.pos: List[str] = []
        self._name_counter = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_pi(self, name: str) -> Node:
        if name in self.nodes:
            raise ValueError(f"duplicate node name {name!r}")
        node = Node(name)
        self.nodes[name] = node
        return node

    def add_node(
        self, name: str, fanins: Sequence[str], cover: Cover
    ) -> Node:
        if name in self.nodes:
            raise ValueError(f"duplicate node name {name!r}")
        for fanin in fanins:
            if fanin not in self.nodes:
                raise ValueError(
                    f"node {name!r} references unknown fanin {fanin!r}"
                )
        node = Node(name, fanins, cover)
        self.nodes[name] = node
        if self._would_cycle(node):
            del self.nodes[name]
            raise ValueError(f"adding node {name!r} would create a cycle")
        return node

    def add_po(self, name: str) -> None:
        if name not in self.nodes:
            raise ValueError(f"primary output {name!r} is not a node")
        if name not in self.pos:
            self.pos.append(name)

    def fresh_name(self, prefix: str = "n") -> str:
        while True:
            name = f"{prefix}{self._name_counter}"
            self._name_counter += 1
            if name not in self.nodes:
                return name

    def parse_node(self, name: str, expression: str, fanins: Sequence[str]) -> Node:
        """Convenience: add a node from ``a b' + c`` style text."""
        cover = Cover.parse(expression, list(fanins))
        return self.add_node(name, fanins, cover)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def pis(self) -> List[str]:
        return [n.name for n in self.nodes.values() if n.is_pi]

    def internal_nodes(self) -> List[Node]:
        return [n for n in self.nodes.values() if not n.is_pi]

    def fanouts(self) -> Dict[str, List[str]]:
        """Map node name -> names of nodes that list it as a fanin."""
        result: Dict[str, List[str]] = {name: [] for name in self.nodes}
        for node in self.nodes.values():
            for fanin in node.fanins:
                result[fanin].append(node.name)
        return result

    def topo_order(self) -> List[str]:
        """PIs first, then internal nodes in dependency order."""
        state: Dict[str, int] = {}
        order: List[str] = []

        def visit(name: str) -> None:
            stack = [(name, iter(self.nodes[name].fanins))]
            state[name] = 1
            while stack:
                current, it = stack[-1]
                advanced = False
                for fanin in it:
                    mark = state.get(fanin, 0)
                    if mark == 1:
                        raise ValueError(
                            f"cycle through {fanin!r} in network {self.name!r}"
                        )
                    if mark == 0:
                        state[fanin] = 1
                        stack.append(
                            (fanin, iter(self.nodes[fanin].fanins))
                        )
                        advanced = True
                        break
                if not advanced:
                    state[current] = 2
                    order.append(current)
                    stack.pop()

        for name in self.nodes:
            if state.get(name, 0) == 0:
                visit(name)
        return order

    def _would_cycle(self, node: Node) -> bool:
        """Does *node* reach itself through its fanins?"""
        target = node.name
        stack = list(node.fanins)
        seen: Set[str] = set()
        while stack:
            current = stack.pop()
            if current == target:
                return True
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.nodes[current].fanins)
        return False

    def transitive_fanin(self, name: str) -> Set[str]:
        """All node names feeding *name* (not including it)."""
        result: Set[str] = set()
        stack = list(self.nodes[name].fanins)
        while stack:
            current = stack.pop()
            if current in result:
                continue
            result.add(current)
            stack.extend(self.nodes[current].fanins)
        return result

    def transitive_fanout(self, name: str) -> Set[str]:
        fanouts = self.fanouts()
        result: Set[str] = set()
        stack = list(fanouts[name])
        while stack:
            current = stack.pop()
            if current in result:
                continue
            result.add(current)
            stack.extend(fanouts[current])
        return result

    def depth(self) -> int:
        """Longest PI-to-PO path length in nodes."""
        level: Dict[str, int] = {}
        for name in self.topo_order():
            node = self.nodes[name]
            if node.is_pi:
                level[name] = 0
            else:
                level[name] = 1 + max(
                    (level[f] for f in node.fanins), default=0
                )
        return max((level[po] for po in self.pos), default=0)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def sop_literals(self) -> int:
        return sum(n.sop_literals() for n in self.internal_nodes())

    def num_cubes(self) -> int:
        return sum(n.num_cubes() for n in self.internal_nodes())

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, assignment: Dict[str, bool]) -> Dict[str, bool]:
        """Evaluate every node under a PI assignment."""
        values: Dict[str, bool] = {}
        for name in self.topo_order():
            node = self.nodes[name]
            if node.is_pi:
                values[name] = bool(assignment[name])
            else:
                packed = 0
                for i, fanin in enumerate(node.fanins):
                    if values[fanin]:
                        packed |= 1 << i
                values[name] = node.cover.evaluate(packed)
        return values

    def simulate(
        self, patterns: Dict[str, int], width: Optional[int] = None
    ) -> Dict[str, int]:
        """Bit-parallel simulation.

        *patterns* maps each PI name to an integer whose bit ``k`` is
        the PI's value in pattern ``k``.  *width* is the number of
        packed patterns; when omitted it is inferred from the longest
        pattern (pass it explicitly if high bits may be all zero).
        Returns the packed values of every node.
        """
        if width is None:
            width = max(
                (p.bit_length() for p in patterns.values()), default=1
            )
        mask = (1 << max(width, 1)) - 1
        values: Dict[str, int] = {}
        for name in self.topo_order():
            node = self.nodes[name]
            if node.is_pi:
                values[name] = patterns[name]
                continue
            fanin_values = [values[f] for f in node.fanins]
            values[name] = eval_cover_packed(node.cover, fanin_values, mask)
        return values

    # ------------------------------------------------------------------
    # Structural edits
    # ------------------------------------------------------------------
    def remove_node(self, name: str) -> None:
        node = self.nodes[name]
        if name in self.pos:
            raise ValueError(f"cannot remove primary output {name!r}")
        fanouts = self.fanouts()[name]
        if fanouts:
            raise ValueError(
                f"cannot remove {name!r}: it drives {fanouts}"
            )
        del self.nodes[name]

    def sweep_dangling(self) -> int:
        """Remove nodes with no path to a PO.  Returns removal count."""
        useful: Set[str] = set()
        stack = list(self.pos)
        while stack:
            current = stack.pop()
            if current in useful:
                continue
            useful.add(current)
            stack.extend(self.nodes[current].fanins)
        removed = 0
        for name in list(self.nodes):
            if name not in useful and not self.nodes[name].is_pi:
                del self.nodes[name]
                removed += 1
        return removed

    def collapse_into_fanouts(self, name: str) -> None:
        """Eliminate *name* by substituting its function into fanouts."""
        node = self.nodes[name]
        if node.is_pi:
            raise ValueError("cannot collapse a primary input")
        if name in self.pos:
            raise ValueError(f"cannot collapse primary output {name!r}")
        for fanout_name in self.fanouts()[name]:
            self.substitute_function(fanout_name, name)
        self.remove_node(name)

    def substitute_function(self, target_name: str, fanin_name: str) -> None:
        """Inline *fanin_name*'s cover into *target_name*'s cover."""
        target = self.nodes[target_name]
        source = self.nodes[fanin_name]
        if source.cover is None:
            raise ValueError("cannot inline a primary input")
        if fanin_name not in target.fanins:
            return

        var = target.fanins.index(fanin_name)
        new_fanins = [f for f in target.fanins if f != fanin_name]
        for f in source.fanins:
            if f not in new_fanins:
                new_fanins.append(f)
        index = {f: i for i, f in enumerate(new_fanins)}
        n = len(new_fanins)

        # Remap the source cover and its complement into the new space.
        source_map = [index[f] for f in source.fanins]
        g = source.cover.remap(source_map, n)
        g_not = complement(source.cover).remap(source_map, n)

        old_map = [index.get(f, -1) for f in target.fanins]
        cubes: List[Cube] = []
        for cube in target.cover.cubes:
            phase = cube.phase(var)
            rest_literals = [
                (old_map[v], p)
                for v, p in cube.literals()
                if v != var
            ]
            rest = Cube.from_literals(rest_literals)
            if phase is None:
                cubes.append(rest)
                continue
            expansion = g if phase else g_not
            for g_cube in expansion.cubes:
                merged = rest.intersect(g_cube)
                if merged is not None:
                    cubes.append(merged)
        new_cover = Cover(n, cubes).single_cube_containment()
        target.set_function(new_fanins, new_cover)
        target.prune_unused_fanins()

    def replace_with_constant(self, name: str, value: bool) -> None:
        """Turn a node into a constant (fanins dropped)."""
        node = self.nodes[name]
        cover = Cover.one(0) if value else Cover.zero(0)
        node.set_function([], cover)

    # ------------------------------------------------------------------
    # Copying / rendering
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "Network":
        duplicate = Network(name or self.name)
        for node in self.nodes.values():
            duplicate.nodes[node.name] = node.copy()
        duplicate.pos = list(self.pos)
        # Keep fresh-name generation ahead of anything already present.
        # Reading the counter must not advance it: taking a copy (e.g.
        # the verification reference) would otherwise shift every name
        # generated afterwards in the source network.
        duplicate._name_counter = self._name_counter
        return duplicate

    def to_str(self) -> str:
        lines = [f"# network {self.name}"]
        lines.append("inputs: " + " ".join(self.pis))
        lines.append("outputs: " + " ".join(self.pos))
        for name in self.topo_order():
            node = self.nodes[name]
            if not node.is_pi:
                lines.append(node.to_str())
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Network({self.name!r}, pis={len(self.pis)}, "
            f"nodes={len(self.nodes) - len(self.pis)}, pos={len(self.pos)})"
        )
