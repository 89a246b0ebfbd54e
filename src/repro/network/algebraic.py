"""Algebraic (weak) division and kernel machinery.

This is the classical polynomial view of logic the paper contrasts
with: products are algebraic only when supports are disjoint, so
identities like ``a·a = a`` are invisible.  These routines power the
SIS baseline (``resub``), factoring, and kernel extraction (``gkx``).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.twolevel.cube import Cube
from repro.twolevel.cover import Cover


def common_cube(cover: Cover) -> Cube:
    """The largest cube dividing every cube of the cover."""
    if not cover.cubes:
        return Cube.full()
    pos = neg = ~0
    for cube in cover.cubes:
        pos &= cube.pos
        neg &= cube.neg
    # Masks were intersected starting from all-ones; trim to support.
    limit = (1 << cover.num_vars) - 1
    return Cube(pos & limit, neg & limit)


def is_cube_free(cover: Cover) -> bool:
    """No literal divides every cube (and the cover is not one cube)."""
    if len(cover.cubes) <= 1:
        return False
    return common_cube(cover).is_full()


def make_cube_free(cover: Cover) -> Cover:
    """Divide out the common cube."""
    cube = common_cube(cover)
    if cube.is_full():
        return cover
    return Cover(
        cover.num_vars,
        [c.cofactor_cube(cube) for c in cover.cubes],
    )


def divide_by_literal(cover: Cover, var: int, phase: bool) -> Cover:
    """Algebraic quotient by a single literal."""
    bit = 1 << var
    cubes = []
    for cube in cover.cubes:
        mask = cube.pos if phase else cube.neg
        if mask & bit:
            cubes.append(cube.without_var(var))
    return Cover(cover.num_vars, cubes)


def weak_division(
    cover: Cover, divisor: Cover
) -> Tuple[Cover, Cover]:
    """Algebraic division: ``cover = divisor·quotient + remainder``.

    Returns ``(quotient, remainder)``; the quotient is empty when the
    division fails.  The product is kept algebraic: quotient cubes may
    not mention any variable in the divisor's support.
    """
    if divisor.is_zero():
        raise ZeroDivisionError("algebraic division by the zero cover")
    divisor_support = divisor.support()

    quotient_cubes: Optional[set] = None
    for d in divisor.cubes:
        partial = set()
        for c in cover.cubes:
            if d.contains(c):
                q = c.cofactor_cube(d)
                if q is not None and not (q.support() & divisor_support):
                    partial.add(q)
        if quotient_cubes is None:
            quotient_cubes = partial
        else:
            quotient_cubes &= partial
        if not quotient_cubes:
            break

    if not quotient_cubes:
        return Cover.zero(cover.num_vars), cover

    ordered = sorted(quotient_cubes)
    products = set()
    for q in ordered:
        for d in divisor.cubes:
            product = q.intersect(d)
            if product is not None:
                products.add(product)
    remainder = Cover(
        cover.num_vars, [c for c in cover.cubes if c not in products]
    )
    return Cover(cover.num_vars, ordered), remainder


def literal_counts(cover: Cover) -> List[Tuple[int, bool, int]]:
    """``(var, phase, occurrence_count)`` for all present literals."""
    counts = []
    for var in cover.support_vars():
        pos, neg = cover.var_phase_counts(var)
        if pos:
            counts.append((var, True, pos))
        if neg:
            counts.append((var, False, neg))
    return counts


def all_kernels(cover: Cover) -> List[Tuple[Cover, Cube]]:
    """All kernels with one co-kernel each.

    A kernel is a cube-free quotient of the cover by a cube.  The
    cover itself (made cube-free) is included when it is cube-free.
    Follows the classical recursive enumeration with literal-index
    pruning to avoid duplicate visits.
    """
    kernels: List[Tuple[Cover, Cube]] = []
    seen = set()

    literals = [
        (var, phase)
        for var in range(cover.num_vars)
        for phase in (True, False)
    ]

    def record(kernel: Cover, cokernel: Cube) -> None:
        key = frozenset(kernel.cubes)
        if key not in seen:
            seen.add(key)
            kernels.append((kernel, cokernel))

    def recurse(current: Cover, start: int, cokernel: Cube) -> None:
        for i in range(start, len(literals)):
            var, phase = literals[i]
            bit = 1 << var
            count = sum(
                1
                for c in current.cubes
                if (c.pos if phase else c.neg) & bit
            )
            if count < 2:
                continue
            quotient = divide_by_literal(current, var, phase)
            extra = common_cube(quotient)
            # Pruning: if the common cube holds a literal with smaller
            # index, this kernel was found on an earlier branch.
            skip = False
            for e_var, e_phase in extra.literals():
                if literals.index((e_var, e_phase)) < i:
                    skip = True
                    break
            if skip:
                continue
            kernel = make_cube_free(quotient)
            new_cokernel = cokernel.intersect(
                Cube.literal(var, phase)
            )
            if new_cokernel is None:
                continue
            merged = new_cokernel.intersect(extra)
            if merged is None:
                continue
            record(kernel, merged)
            recurse(kernel, i + 1, merged)

    base = make_cube_free(cover)
    if is_cube_free(base):
        record(base, common_cube(cover))
    recurse(base, 0, common_cube(cover))
    return kernels


def quick_divisor(cover: Cover) -> Optional[Cover]:
    """One level-0 kernel, found greedily (SIS's QUICK_DIVISOR).

    Returns ``None`` when the cover has no kernel other than itself
    (i.e. no literal appears in two or more cubes).
    """
    current = make_cube_free(cover)
    found = False
    while True:
        best = None
        for var, phase, count in literal_counts(current):
            if count >= 2 and (best is None or count > best[2]):
                best = (var, phase, count)
        if best is None:
            return current if found else None
        var, phase, _ = best
        current = make_cube_free(divide_by_literal(current, var, phase))
        found = True
        if len(current.cubes) <= 1:
            # Degenerate: dividing left a single cube; no kernel here.
            return None
