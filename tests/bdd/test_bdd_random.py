"""Seeded-random coverage for the BDD manager.

The manager is the exact-equivalence oracle (``network/verify.py``),
the don't-care engine's function store and a division baseline, so its
operations are swept over a deterministic random population (plain
``random.Random(seed)``, seeds in the test ids) and checked against
the cover they were built from: a failure reproduces from its id alone.
"""

from __future__ import annotations

import random

import pytest

from repro.bdd import BDD_ONE, BDD_ZERO, BddManager
from repro.twolevel.cover import Cover
from repro.twolevel.cube import Cube

SEEDS = list(range(500, 520))
NUM_VARS = 5


def random_cover(
    seed: int, num_vars: int = NUM_VARS, max_cubes: int = 6
) -> Cover:
    rng = random.Random(seed)
    cubes = []
    for _ in range(rng.randint(1, max_cubes)):
        literals = {}
        for var in range(num_vars):
            roll = rng.random()
            if roll < 0.35:
                literals[var] = True
            elif roll < 0.7:
                literals[var] = False
        cubes.append(Cube.from_literals(literals.items()))
    return Cover(num_vars, cubes)


def truth_mask(manager: BddManager, f: int) -> int:
    """Bit ``x`` set iff ``f`` is true under assignment ``x``."""
    mask = 0
    for assignment in range(1 << manager.num_vars):
        if manager.evaluate(f, assignment):
            mask |= 1 << assignment
    return mask


@pytest.mark.parametrize("seed", SEEDS)
def test_from_cover_preserves_semantics(seed):
    cover = random_cover(seed)
    manager = BddManager(cover.num_vars)
    f = manager.from_cover(cover)
    for assignment in range(1 << cover.num_vars):
        assert manager.evaluate(f, assignment) == cover.evaluate(assignment)


@pytest.mark.parametrize("seed", SEEDS)
def test_restrict_and_exists_match_cover_cofactors(seed):
    cover = random_cover(seed)
    manager = BddManager(cover.num_vars)
    f = manager.from_cover(cover)
    for var in range(cover.num_vars):
        low = cover.cofactor(var, False)
        high = cover.cofactor(var, True)
        assert manager.restrict(f, var, False) == manager.from_cover(low)
        assert manager.restrict(f, var, True) == manager.from_cover(high)
        assert manager.exists(f, var) == manager.from_cover(low.union(high))


@pytest.mark.parametrize("seed", SEEDS[:8])
def test_path_cubes_rebuild_the_same_node(seed):
    """``to_cover`` enumerates disjoint path cubes whose union is the
    function, so rebuilding from them hits the same canonical node."""
    cover = random_cover(seed)
    manager = BddManager(cover.num_vars)
    f = manager.from_cover(cover)
    back = manager.to_cover(f)
    assert back.truth_mask() == cover.truth_mask()
    masks = [cube.truth_mask(cover.num_vars) for cube in back.cubes]
    for i, left in enumerate(masks):
        for right in masks[i + 1 :]:
            assert left & right == 0
    assert manager.from_cover(back) == f


@pytest.mark.parametrize("seed", SEEDS[:8])
def test_construction_is_order_independent_and_deterministic(seed):
    cover = random_cover(seed)
    shuffled = list(cover.cubes)
    random.Random(seed).shuffle(shuffled)

    def build(cubes):
        manager = BddManager(cover.num_vars)
        f = manager.from_cover(Cover(cover.num_vars, cubes))
        return manager, f

    manager, f = build(cover.cubes)
    again, g = build(cover.cubes)
    assert (g, again.size()) == (f, manager.size())
    assert manager.from_cover(Cover(cover.num_vars, shuffled)) == f
    assert manager.from_cover(Cover(cover.num_vars, shuffled[::-1])) == f


@pytest.mark.parametrize("seed", SEEDS[:8])
def test_multi_root_connectives_match_truth_tables(seed):
    f_cover = random_cover(seed)
    g_cover = random_cover(seed + 1000)
    h_cover = random_cover(seed + 2000)
    manager = BddManager(NUM_VARS)
    f, g, h = (manager.from_cover(c) for c in (f_cover, g_cover, h_cover))
    fm, gm, hm = (c.truth_mask() for c in (f_cover, g_cover, h_cover))
    full = (1 << (1 << NUM_VARS)) - 1
    assert truth_mask(manager, f) == fm
    assert truth_mask(manager, manager.and_(f, g)) == fm & gm
    assert truth_mask(manager, manager.or_(f, g)) == fm | gm
    assert truth_mask(manager, manager.xor(f, g)) == fm ^ gm
    assert truth_mask(manager, manager.not_(f)) == full & ~fm
    assert truth_mask(manager, manager.ite(f, g, h)) == (
        (fm & gm) | (full & ~fm & hm)
    )
    assert truth_mask(manager, manager.or_many([f, g, h])) == fm | gm | hm
    assert manager.implies(f, g) == (fm & ~gm == 0)
    assert manager.implies(manager.and_(f, g), f)
    assert manager.and_(f, manager.not_(f)) == BDD_ZERO
    assert manager.or_(f, manager.not_(f)) == BDD_ONE


@pytest.mark.parametrize("seed", SEEDS[:8])
def test_constrain_division_identity(seed):
    """Coudert/Madre: ``f ↓ c`` agrees with ``f`` wherever ``c`` holds,
    so ``c·(f ↓ c) + c'·f = f`` (the BDD division baseline's identity)."""
    manager = BddManager(NUM_VARS)
    f = manager.from_cover(random_cover(seed))
    c = manager.from_cover(random_cover(seed + 1000))
    assert BDD_ZERO not in (f, c)
    quotient = manager.constrain(f, c)
    assert manager.and_(c, manager.xor(quotient, f)) == BDD_ZERO
    rebuilt = manager.or_(
        manager.and_(c, quotient), manager.and_(manager.not_(c), f)
    )
    assert rebuilt == f
    assert manager.constrain(f, f) == BDD_ONE
