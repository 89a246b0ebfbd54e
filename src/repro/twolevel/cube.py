"""Cubes (product terms) in positional-cube notation.

A cube over variables ``x0 .. x(n-1)`` is a conjunction of literals.  It
is stored as two bit masks:

* ``pos`` — bit ``i`` set means the literal ``xi`` appears,
* ``neg`` — bit ``i`` set means the literal ``xi'`` appears.

A variable mentioned in neither mask is absent (don't care for this
cube).  A variable mentioned in both masks would make the cube empty;
:class:`Cube` never represents empty cubes — operations that would
produce one (e.g. :meth:`Cube.intersect`) return ``None`` instead.

Containment follows the paper's convention: cube ``a`` *contains* cube
``b`` when the on-set of ``a`` contains the on-set of ``b``, which for
cubes is exactly "the literals of ``a`` are a subset of the literals of
``b``" (e.g. ``b`` contains ``abc``).
"""

from __future__ import annotations

import functools
import sys
from typing import Iterable, Iterator, Optional, Sequence, Tuple

if sys.version_info >= (3, 10):

    def _popcount(x: int) -> int:
        return x.bit_count()

else:  # pragma: no cover — exercised only on older interpreters

    def _popcount(x: int) -> int:
        return bin(x).count("1")


@functools.lru_cache(maxsize=4096)
def _var_truth_mask(num_vars: int, var: int) -> int:
    """Truth-table mask of the literal ``x_var`` over *num_vars* vars.

    Bit ``m`` of the result is set iff minterm ``m`` has ``x_var = 1``
    — the classic "magic constant" of bit-parallel truth tables
    (e.g. ...0101 for x0, ...0011 for x1).
    """
    block = 1 << var  # run length of equal values in minterm order
    full = (1 << (1 << num_vars)) - 1
    unit = ((1 << block) - 1) << block
    repetitions = full // ((1 << (2 * block)) - 1)
    return unit * repetitions


class Cube:
    """An immutable, hashable product term."""

    __slots__ = ("pos", "neg")

    def __init__(self, pos: int = 0, neg: int = 0):
        if pos < 0 or neg < 0:
            raise ValueError("literal masks must be non-negative")
        if pos & neg:
            raise ValueError(
                "cube has a variable in both phases (empty cube); "
                "use intersect(), which signals emptiness with None"
            )
        self.pos = pos
        self.neg = neg

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def full() -> "Cube":
        """The universal cube (no literals; the constant-1 product)."""
        return Cube(0, 0)

    @staticmethod
    def literal(var: int, phase: bool) -> "Cube":
        """A single-literal cube: ``xvar`` if *phase* else ``xvar'``."""
        bit = 1 << var
        return Cube(bit, 0) if phase else Cube(0, bit)

    @staticmethod
    def from_literals(literals: Iterable[Tuple[int, bool]]) -> "Cube":
        """Build a cube from ``(var, phase)`` pairs.

        Raises ``ValueError`` if the same variable appears in both
        phases (that product is empty).
        """
        pos = neg = 0
        for var, phase in literals:
            bit = 1 << var
            if phase:
                pos |= bit
            else:
                neg |= bit
        return Cube(pos, neg)

    @staticmethod
    def from_minterm(minterm: int, num_vars: int) -> "Cube":
        """The full-dimension cube for a minterm (all variables bound)."""
        mask = (1 << num_vars) - 1
        pos = minterm & mask
        return Cube(pos, mask & ~pos)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    def num_literals(self) -> int:
        return _popcount(self.pos | self.neg)

    def support(self) -> int:
        """Bit mask of variables mentioned by this cube."""
        return self.pos | self.neg

    def variables(self) -> Iterator[int]:
        """Indices of variables mentioned by this cube, ascending."""
        sup = self.pos | self.neg
        i = 0
        while sup:
            if sup & 1:
                yield i
            sup >>= 1
            i += 1

    def literals(self) -> Iterator[Tuple[int, bool]]:
        """``(var, phase)`` pairs, ascending by variable index."""
        for var in self.variables():
            yield var, bool(self.pos >> var & 1)

    def phase(self, var: int) -> Optional[bool]:
        """Phase of *var* in this cube, or ``None`` when absent."""
        bit = 1 << var
        if self.pos & bit:
            return True
        if self.neg & bit:
            return False
        return None

    def is_full(self) -> bool:
        return not (self.pos | self.neg)

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def contains(self, other: "Cube") -> bool:
        """On-set containment: every minterm of *other* is in *self*.

        Holds iff self's literals are a subset of other's literals.
        """
        return (self.pos & ~other.pos) == 0 and (self.neg & ~other.neg) == 0

    def intersect(self, other: "Cube") -> Optional["Cube"]:
        """Product of two cubes, or ``None`` when they are disjoint."""
        pos = self.pos | other.pos
        neg = self.neg | other.neg
        if pos & neg:
            return None
        return Cube(pos, neg)

    def distance(self, other: "Cube") -> int:
        """Number of variables in which the two cubes conflict.

        Distance 0 means the cubes intersect; distance 1 means they can
        be merged by the consensus operation.
        """
        return _popcount((self.pos & other.neg) | (self.neg & other.pos))

    def consensus(self, other: "Cube") -> Optional["Cube"]:
        """The consensus cube, defined only when distance is exactly 1."""
        conflict = (self.pos & other.neg) | (self.neg & other.pos)
        if _popcount(conflict) != 1:
            return None
        pos = (self.pos | other.pos) & ~conflict
        neg = (self.neg | other.neg) & ~conflict
        return Cube(pos, neg)

    def supercube(self, other: "Cube") -> "Cube":
        """Smallest cube containing both operands (literal intersection)."""
        return Cube(self.pos & other.pos, self.neg & other.neg)

    def cofactor(self, var: int, value: bool) -> Optional["Cube"]:
        """Shannon cofactor with respect to ``var = value``.

        Returns ``None`` when the cube vanishes under the assignment.
        """
        bit = 1 << var
        if value:
            if self.neg & bit:
                return None
            return Cube(self.pos & ~bit, self.neg)
        if self.pos & bit:
            return None
        return Cube(self.pos, self.neg & ~bit)

    def cofactor_cube(self, other: "Cube") -> Optional["Cube"]:
        """Cube cofactor (Espresso's cube-restriction), ``None`` if disjoint."""
        if self.distance(other) != 0:
            return None
        return Cube(self.pos & ~other.pos, self.neg & ~other.neg)

    def without_var(self, var: int) -> "Cube":
        """Drop any literal of *var* (existential abstraction for a cube)."""
        bit = 1 << var
        return Cube(self.pos & ~bit, self.neg & ~bit)

    # ------------------------------------------------------------------
    # Evaluation / enumeration
    # ------------------------------------------------------------------
    def evaluate(self, assignment: int) -> bool:
        """Evaluate under a complete assignment given as a bit vector."""
        if self.pos & ~assignment:
            return False
        if self.neg & assignment:
            return False
        return True

    def minterms(self, num_vars: int) -> Iterator[int]:
        """Enumerate the cube's minterms as integers (LSB = x0)."""
        free_vars = [v for v in range(num_vars) if not (self.support() >> v & 1)]
        base = self.pos
        for combo in range(1 << len(free_vars)):
            value = base
            for j, var in enumerate(free_vars):
                if combo >> j & 1:
                    value |= 1 << var
            yield value

    def truth_mask(self, num_vars: int) -> int:
        """On-set as a 2**num_vars-bit truth-table mask (small n only).

        Computed bit-parallel from per-variable magic masks rather than
        by enumerating minterms.
        """
        full = (1 << (1 << num_vars)) - 1
        mask = full
        sup = self.pos | self.neg
        if sup >> num_vars:
            raise ValueError("cube mentions variables beyond num_vars")
        for var, phase in self.literals():
            var_mask = _var_truth_mask(num_vars, var)
            mask &= var_mask if phase else full & ~var_mask
            if not mask:
                break
        return mask

    # ------------------------------------------------------------------
    # Text I/O
    # ------------------------------------------------------------------
    def to_str(self, names: Optional[Sequence[str]] = None) -> str:
        """Render as e.g. ``ab'c``; the full cube renders as ``1``."""
        if self.is_full():
            return "1"
        parts = []
        for var, phase in self.literals():
            name = names[var] if names is not None else f"x{var}"
            parts.append(name if phase else name + "'")
        return "".join(parts)

    @staticmethod
    def parse(text: str, names: Sequence[str]) -> "Cube":
        """Parse ``ab'c`` style text against a list of variable names.

        Longest-match-first so multi-character names work.  ``1`` parses
        to the full cube.
        """
        text = text.strip()
        if text == "1":
            return Cube.full()
        ordered = sorted(range(len(names)), key=lambda i: -len(names[i]))
        literals = []
        i = 0
        while i < len(text):
            if text[i].isspace():
                i += 1
                continue
            for idx in ordered:
                name = names[idx]
                if text.startswith(name, i):
                    i += len(name)
                    phase = True
                    if i < len(text) and text[i] == "'":
                        phase = False
                        i += 1
                    literals.append((idx, phase))
                    break
            else:
                raise ValueError(f"cannot parse literal at {text[i:]!r}")
        return Cube.from_literals(literals)

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Cube)
            and self.pos == other.pos
            and self.neg == other.neg
        )

    def __hash__(self) -> int:
        return hash((self.pos, self.neg))

    def __repr__(self) -> str:
        return f"Cube({self.to_str()})"

    def __lt__(self, other: "Cube") -> bool:
        return (self.pos, self.neg) < (other.pos, other.neg)
