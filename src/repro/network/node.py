"""Network nodes: a name, an ordered fanin list, and a SOP cover.

Variable ``i`` of a node's cover refers to ``fanins[i]``.  Primary
inputs are represented by nodes with ``cover is None``.  Constant nodes
have an empty fanin list and either the zero cover or the one cover.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.twolevel.cube import Cube
from repro.twolevel.cover import Cover


class Node:
    """One node of a Boolean network."""

    __slots__ = ("name", "fanins", "cover")

    def __init__(
        self,
        name: str,
        fanins: Sequence[str] = (),
        cover: Optional[Cover] = None,
    ):
        self.name = name
        self.fanins: List[str] = list(fanins)
        if cover is not None and cover.num_vars != len(self.fanins):
            raise ValueError(
                f"node {name}: cover over {cover.num_vars} variables but "
                f"{len(self.fanins)} fanins"
            )
        self.cover = cover

    # ------------------------------------------------------------------
    @property
    def is_pi(self) -> bool:
        return self.cover is None

    def is_constant(self) -> bool:
        return self.cover is not None and not self.fanins

    def constant_value(self) -> Optional[bool]:
        """0/1 for constant nodes, ``None`` otherwise."""
        if self.cover is None or self.fanins:
            return None
        return not self.cover.is_zero()

    def is_buffer(self) -> bool:
        """A single positive literal of a single fanin."""
        return (
            self.cover is not None
            and len(self.fanins) == 1
            and self.cover.cubes == (Cube.literal(0, True),)
        )

    def is_inverter(self) -> bool:
        return (
            self.cover is not None
            and len(self.fanins) == 1
            and self.cover.cubes == (Cube.literal(0, False),)
        )

    def num_cubes(self) -> int:
        return 0 if self.cover is None else self.cover.num_cubes()

    def sop_literals(self) -> int:
        return 0 if self.cover is None else self.cover.num_literals()

    def fanin_index(self, name: str) -> int:
        return self.fanins.index(name)

    def depends_on(self, name: str) -> bool:
        """True if *name* is a fanin actually used by the cover."""
        if self.cover is None or name not in self.fanins:
            return False
        bit = 1 << self.fanins.index(name)
        return bool(self.cover.support() & bit)

    # ------------------------------------------------------------------
    def set_function(self, fanins: Sequence[str], cover: Cover) -> None:
        """Replace the node's function in place."""
        if cover.num_vars != len(fanins):
            raise ValueError(
                f"node {self.name}: cover over {cover.num_vars} variables "
                f"but {len(fanins)} fanins"
            )
        self.fanins = list(fanins)
        self.cover = cover

    def prune_unused_fanins(self) -> None:
        """Drop fanins the cover does not mention (keeps order)."""
        if self.cover is None:
            return
        support = self.cover.support()
        keep = [i for i in range(len(self.fanins)) if support >> i & 1]
        if len(keep) == len(self.fanins):
            return
        var_map = [0] * len(self.fanins)
        for new_index, old_index in enumerate(keep):
            var_map[old_index] = new_index
        self.cover = self.cover.remap(var_map, len(keep))
        self.fanins = [self.fanins[i] for i in keep]

    def substitute_fanin_name(self, old: str, new: str) -> None:
        """Rename a fanin reference (the function is unchanged)."""
        if new in self.fanins and old in self.fanins:
            # Merge the two variables: remap old's variable onto new's.
            old_index = self.fanins.index(old)
            new_index = self.fanins.index(new)
            var_map = list(range(len(self.fanins)))
            var_map[old_index] = new_index
            n = len(self.fanins)
            cubes = []
            for cube in self.cover.cubes:
                literals = {}
                conflict = False
                for var, phase in cube.literals():
                    target = var_map[var]
                    if target in literals and literals[target] != phase:
                        conflict = True
                        break
                    literals[target] = phase
                if not conflict:
                    cubes.append(Cube.from_literals(literals.items()))
            self.cover = Cover(n, cubes)
            self.prune_unused_fanins()
            return
        self.fanins = [new if f == old else f for f in self.fanins]

    # ------------------------------------------------------------------
    def literal_occurrences(self, fanin: str) -> Tuple[int, int]:
        """``(positive, negative)`` literal counts of a fanin."""
        if self.cover is None or fanin not in self.fanins:
            return (0, 0)
        return self.cover.var_phase_counts(self.fanins.index(fanin))

    def to_str(self) -> str:
        if self.cover is None:
            return f"{self.name} = <primary input>"
        return f"{self.name} = {self.cover.to_str(self.fanins)}"

    def copy(self) -> "Node":
        return Node(self.name, list(self.fanins), self.cover)

    def __repr__(self) -> str:
        return f"Node({self.to_str()})"
