"""Covers: ordered collections of cubes denoting a sum-of-products.

A :class:`Cover` is a function over ``num_vars`` variables given as the
OR of its cubes.  Covers are immutable; all operations return new
covers.  Cube order is preserved (and deterministic), which matters for
reproducible experiment tables.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.twolevel.cube import Cube


class Cover:
    """An immutable sum-of-products over ``num_vars`` variables."""

    __slots__ = ("num_vars", "cubes")

    def __init__(self, num_vars: int, cubes: Iterable[Cube] = ()):
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        self.num_vars = num_vars
        cubes = tuple(cubes)
        limit = (1 << num_vars) - 1
        for cube in cubes:
            if cube.support() & ~limit:
                raise ValueError(
                    f"cube {cube!r} mentions variables beyond num_vars={num_vars}"
                )
        self.cubes = cubes

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zero(num_vars: int) -> "Cover":
        """The constant-0 cover (no cubes)."""
        return Cover(num_vars, ())

    @staticmethod
    def one(num_vars: int) -> "Cover":
        """The constant-1 cover (single universal cube)."""
        return Cover(num_vars, (Cube.full(),))

    @staticmethod
    def from_minterms(minterms: Iterable[int], num_vars: int) -> "Cover":
        return Cover(
            num_vars, (Cube.from_minterm(m, num_vars) for m in sorted(set(minterms)))
        )

    @staticmethod
    def parse(text: str, names: Sequence[str]) -> "Cover":
        """Parse ``ab' + cd + e`` style text.  ``0`` parses to zero."""
        text = text.strip()
        num_vars = len(names)
        if text in ("", "0"):
            return Cover.zero(num_vars)
        cubes = [Cube.parse(term, names) for term in text.split("+")]
        return Cover(num_vars, cubes)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.cubes

    def is_one_cube(self) -> bool:
        return any(c.is_full() for c in self.cubes)

    def num_cubes(self) -> int:
        return len(self.cubes)

    def num_literals(self) -> int:
        """Literal count of the SOP form (not factored form)."""
        return sum(c.num_literals() for c in self.cubes)

    def support(self) -> int:
        sup = 0
        for cube in self.cubes:
            sup |= cube.support()
        return sup

    def support_vars(self) -> List[int]:
        sup = self.support()
        return [v for v in range(self.num_vars) if sup >> v & 1]

    def var_phase_counts(self, var: int) -> Tuple[int, int]:
        """``(positive, negative)`` occurrence counts of *var*."""
        bit = 1 << var
        pos = sum(1 for c in self.cubes if c.pos & bit)
        neg = sum(1 for c in self.cubes if c.neg & bit)
        return pos, neg

    def is_unate_in(self, var: int) -> bool:
        pos, neg = self.var_phase_counts(var)
        return pos == 0 or neg == 0

    def is_unate(self) -> bool:
        return all(self.is_unate_in(v) for v in self.support_vars())

    def most_binate_var(self) -> Optional[int]:
        """The splitting variable URP recursions use.

        Chooses the variable appearing in the most cubes among those
        that are binate; falls back to the most frequent variable when
        the cover is unate.  Returns ``None`` for constant covers.
        """
        best_var = None
        best_key = None
        for var in self.support_vars():
            pos, neg = self.var_phase_counts(var)
            binate = pos > 0 and neg > 0
            key = (binate, pos + neg, min(pos, neg))
            if best_key is None or key > best_key:
                best_key = key
                best_var = var
        return best_var

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def union(self, other: "Cover") -> "Cover":
        self._check_compatible(other)
        return Cover(self.num_vars, self.cubes + other.cubes)

    def with_cube(self, cube: Cube) -> "Cover":
        return Cover(self.num_vars, self.cubes + (cube,))

    def without_index(self, index: int) -> "Cover":
        return Cover(
            self.num_vars, self.cubes[:index] + self.cubes[index + 1 :]
        )

    def intersect(self, other: "Cover") -> "Cover":
        """Pairwise cube products (may produce a non-minimal cover)."""
        self._check_compatible(other)
        cubes = []
        for a in self.cubes:
            for b in other.cubes:
                product = a.intersect(b)
                if product is not None:
                    cubes.append(product)
        return Cover(self.num_vars, cubes)

    def intersect_cube(self, cube: Cube) -> "Cover":
        cubes = []
        for c in self.cubes:
            product = c.intersect(cube)
            if product is not None:
                cubes.append(product)
        return Cover(self.num_vars, cubes)

    def cofactor(self, var: int, value: bool) -> "Cover":
        cubes = []
        for c in self.cubes:
            cf = c.cofactor(var, value)
            if cf is not None:
                cubes.append(cf)
        return Cover(self.num_vars, cubes)

    def cofactor_cube(self, cube: Cube) -> "Cover":
        """Cover cofactored against a cube (Espresso's generalized step)."""
        cubes = []
        for c in self.cubes:
            cf = c.cofactor_cube(cube)
            if cf is not None:
                cubes.append(cf)
        return Cover(self.num_vars, cubes)

    def sharp_cube(self, cube: Cube) -> "Cover":
        """The sharp product ``self # cube`` (self AND NOT cube)."""
        result: List[Cube] = []
        for c in self.cubes:
            if cube.contains(c):
                continue
            if c.distance(cube) > 0:
                result.append(c)
                continue
            # c intersects cube but is not contained: split per literal.
            pos, neg = c.pos, c.neg
            for var, phase in cube.literals():
                bit = 1 << var
                if (pos | neg) & bit:
                    continue
                piece = Cube(
                    pos | (0 if phase else bit), neg | (bit if phase else 0)
                )
                result.append(piece)
                # Remaining space agrees with the cube on this literal.
                if phase:
                    pos |= bit
                else:
                    neg |= bit
        return Cover(self.num_vars, result)

    def single_cube_containment(self) -> "Cover":
        """Drop cubes contained in another single cube of the cover."""
        kept: List[Cube] = []
        # Sort by literal count so big cubes are considered first.
        order = sorted(
            range(len(self.cubes)), key=lambda i: self.cubes[i].num_literals()
        )
        chosen: List[Cube] = []
        for i in order:
            cube = self.cubes[i]
            if any(other.contains(cube) for other in chosen):
                continue
            chosen.append(cube)
        chosen_set = set(chosen)
        for cube in self.cubes:  # preserve original ordering
            if cube in chosen_set:
                kept.append(cube)
                chosen_set.discard(cube)
        return Cover(self.num_vars, kept)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, assignment: int) -> bool:
        return any(c.evaluate(assignment) for c in self.cubes)

    def truth_mask(self) -> int:
        """On-set as a 2**num_vars-bit mask.  Only for small num_vars."""
        if self.num_vars > 20:
            raise ValueError("truth_mask is only for small covers")
        mask = 0
        for cube in self.cubes:
            mask |= cube.truth_mask(self.num_vars)
        return mask

    def minterms(self) -> Iterator[int]:
        seen = set()
        for cube in self.cubes:
            for m in cube.minterms(self.num_vars):
                if m not in seen:
                    seen.add(m)
                    yield m

    def equivalent(self, other: "Cover") -> bool:
        """Semantic equivalence (uses URP containment both ways)."""
        from repro.twolevel.tautology import cover_contains_cover

        self._check_compatible(other)
        return cover_contains_cover(self, other) and cover_contains_cover(
            other, self
        )

    # ------------------------------------------------------------------
    # Variable plumbing
    # ------------------------------------------------------------------
    def remap(self, var_map: Sequence[int], new_num_vars: int) -> "Cover":
        """Rename variable ``i`` to ``var_map[i]``."""
        cubes = []
        for cube in self.cubes:
            literals = [(var_map[v], phase) for v, phase in cube.literals()]
            cubes.append(Cube.from_literals(literals))
        return Cover(new_num_vars, cubes)

    def extended(self, new_num_vars: int) -> "Cover":
        """Same cubes over a wider variable space."""
        if new_num_vars < self.num_vars:
            raise ValueError("cannot shrink the variable space")
        return Cover(new_num_vars, self.cubes)

    # ------------------------------------------------------------------
    # Text I/O
    # ------------------------------------------------------------------
    def to_str(self, names: Optional[Sequence[str]] = None) -> str:
        if self.is_zero():
            return "0"
        return " + ".join(c.to_str(names) for c in self.cubes)

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Cube]:
        return iter(self.cubes)

    def __len__(self) -> int:
        return len(self.cubes)

    def __getitem__(self, index: int) -> Cube:
        return self.cubes[index]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Cover)
            and self.num_vars == other.num_vars
            and self.cubes == other.cubes
        )

    def __hash__(self) -> int:
        return hash((self.num_vars, self.cubes))

    def __repr__(self) -> str:
        return f"Cover({self.num_vars}, {self.to_str()})"

    def _check_compatible(self, other: "Cover") -> None:
        if self.num_vars != other.num_vars:
            raise ValueError(
                f"covers have different variable counts: "
                f"{self.num_vars} vs {other.num_vars}"
            )
