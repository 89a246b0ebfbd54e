"""A hash-consed ROBDD manager.

Nodes are integers; the two terminals are the module constants
:data:`BDD_ZERO` and :data:`BDD_ONE`.  Complement edges are not used —
the structure favours clarity over the last constant factor, since BDDs
here serve as a verification oracle and a division baseline rather than
as the primary engine.

Supported operations: ``ite`` (hence all two-operand connectives),
negation, restriction, existential quantification, generalized
cofactor (constrain), evaluation and cube enumeration, and conversion
to/from two-level covers.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.twolevel.cube import Cube
from repro.twolevel.cover import Cover

BDD_ZERO = 0
BDD_ONE = 1


class BddManager:
    """Shared node store for one variable ordering.

    Variables are dense integers ``0 .. num_vars-1`` ordered by index
    (index 0 closest to the root).
    """

    def __init__(self, num_vars: int):
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        self.num_vars = num_vars
        # node id -> (var, low, high); terminals occupy ids 0 and 1.
        self._nodes: List[Tuple[int, int, int]] = [
            (num_vars, -1, -1),
            (num_vars, -1, -1),
        ]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._ite_cache: Dict[Tuple[int, int, int], int] = {}
        self._op_caches: Dict[str, Dict] = {}

    # ------------------------------------------------------------------
    # Node construction
    # ------------------------------------------------------------------
    def var_of(self, node: int) -> int:
        return self._nodes[node][0]

    def low(self, node: int) -> int:
        return self._nodes[node][1]

    def high(self, node: int) -> int:
        return self._nodes[node][2]

    def is_terminal(self, node: int) -> bool:
        return node <= BDD_ONE

    def mk(self, var: int, low: int, high: int) -> int:
        """Find-or-create the node ``(var, low, high)`` (reduced)."""
        if low == high:
            return low
        key = (var, low, high)
        node = self._unique.get(key)
        if node is None:
            node = len(self._nodes)
            self._nodes.append(key)
            self._unique[key] = node
        return node

    def var(self, index: int) -> int:
        """The BDD of the single variable ``x_index``."""
        if not 0 <= index < self.num_vars:
            raise ValueError(f"variable {index} out of range")
        return self.mk(index, BDD_ZERO, BDD_ONE)

    def nvar(self, index: int) -> int:
        return self.mk(index, BDD_ONE, BDD_ZERO)

    def size(self) -> int:
        """Number of live nodes in the store (including terminals)."""
        return len(self._nodes)

    # ------------------------------------------------------------------
    # Core connectives
    # ------------------------------------------------------------------
    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``f·g + f'·h``."""
        if f == BDD_ONE:
            return g
        if f == BDD_ZERO:
            return h
        if g == h:
            return g
        if g == BDD_ONE and h == BDD_ZERO:
            return f
        key = (f, g, h)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached
        top = min(self.var_of(f), self.var_of(g), self.var_of(h))
        f0, f1 = self._cofactors(f, top)
        g0, g1 = self._cofactors(g, top)
        h0, h1 = self._cofactors(h, top)
        result = self.mk(
            top, self.ite(f0, g0, h0), self.ite(f1, g1, h1)
        )
        self._ite_cache[key] = result
        return result

    def _cofactors(self, node: int, var: int) -> Tuple[int, int]:
        if self.var_of(node) == var:
            return self.low(node), self.high(node)
        return node, node

    def and_(self, f: int, g: int) -> int:
        return self.ite(f, g, BDD_ZERO)

    def or_(self, f: int, g: int) -> int:
        return self.ite(f, BDD_ONE, g)

    def xor(self, f: int, g: int) -> int:
        return self.ite(f, self.not_(g), g)

    def not_(self, f: int) -> int:
        return self.ite(f, BDD_ZERO, BDD_ONE)

    def implies(self, f: int, g: int) -> bool:
        """Semantic implication test ``f <= g``."""
        return self.and_(f, self.not_(g)) == BDD_ZERO

    def or_many(self, fs) -> int:
        result = BDD_ZERO
        for f in fs:
            result = self.or_(result, f)
            if result == BDD_ONE:
                break
        return result

    # ------------------------------------------------------------------
    # Structure manipulation
    # ------------------------------------------------------------------
    def restrict(self, f: int, var: int, value: bool) -> int:
        cache = self._op_caches.setdefault("restrict", {})
        key = (f, var, value)
        cached = cache.get(key)
        if cached is not None:
            return cached
        if self.is_terminal(f) or self.var_of(f) > var:
            result = f
        elif self.var_of(f) == var:
            result = self.high(f) if value else self.low(f)
        else:
            result = self.mk(
                self.var_of(f),
                self.restrict(self.low(f), var, value),
                self.restrict(self.high(f), var, value),
            )
        cache[key] = result
        return result

    def exists(self, f: int, var: int) -> int:
        return self.or_(
            self.restrict(f, var, False), self.restrict(f, var, True)
        )

    def constrain(self, f: int, c: int) -> int:
        """Coudert/Madre generalized cofactor ``f ↓ c``.

        This is the operator behind the BDD Boolean-division method of
        Stanion & Sechen that the paper cites: ``f = c·(f ↓ c) + c'·f``.
        """
        if c == BDD_ZERO:
            raise ValueError("constrain against the zero function")
        cache = self._op_caches.setdefault("constrain", {})
        key = (f, c)
        cached = cache.get(key)
        if cached is not None:
            return cached
        result = self._constrain(f, c, cache)
        return result

    def _constrain(self, f: int, c: int, cache) -> int:
        if c == BDD_ONE or self.is_terminal(f):
            return f
        key = (f, c)
        cached = cache.get(key)
        if cached is not None:
            return cached
        top = min(self.var_of(f), self.var_of(c))
        c0, c1 = self._cofactors(c, top)
        f0, f1 = self._cofactors(f, top)
        if c0 == BDD_ZERO:
            result = self._constrain(f1, c1, cache)
        elif c1 == BDD_ZERO:
            result = self._constrain(f0, c0, cache)
        else:
            result = self.mk(
                top,
                self._constrain(f0, c0, cache),
                self._constrain(f1, c1, cache),
            )
        cache[key] = result
        return result

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def evaluate(self, f: int, assignment: int) -> bool:
        node = f
        while not self.is_terminal(node):
            if assignment >> self.var_of(node) & 1:
                node = self.high(node)
            else:
                node = self.low(node)
        return node == BDD_ONE

    def cubes(self, f: int) -> Iterator[Cube]:
        """Enumerate the disjoint path-cubes of the function."""
        path: List[Tuple[int, bool]] = []

        def walk(node: int) -> Iterator[Cube]:
            if node == BDD_ZERO:
                return
            if node == BDD_ONE:
                yield Cube.from_literals(path)
                return
            var = self.var_of(node)
            path.append((var, False))
            yield from walk(self.low(node))
            path.pop()
            path.append((var, True))
            yield from walk(self.high(node))
            path.pop()

        yield from walk(f)

    # ------------------------------------------------------------------
    # Two-level interop
    # ------------------------------------------------------------------
    def from_cube(self, cube: Cube) -> int:
        result = BDD_ONE
        for var, phase in sorted(cube.literals(), reverse=True):
            lit = self.var(var) if phase else self.nvar(var)
            result = self.and_(lit, result)
        return result

    def from_cover(self, cover: Cover) -> int:
        if cover.num_vars > self.num_vars:
            raise ValueError("cover uses more variables than the manager")
        return self.or_many(self.from_cube(c) for c in cover.cubes)

    def to_cover(self, f: int, num_vars: Optional[int] = None) -> Cover:
        n = self.num_vars if num_vars is None else num_vars
        return Cover(n, list(self.cubes(f)))
