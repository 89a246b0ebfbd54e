"""Unit and property tests for covers."""

import pytest
from hypothesis import given

from repro.twolevel.cube import Cube
from repro.twolevel.cover import Cover
from tests.conftest import cover_st

NAMES = list("abcde")


def parse(text: str) -> Cover:
    return Cover.parse(text, NAMES)


class TestConstruction:
    def test_zero_and_one(self):
        assert Cover.zero(3).is_zero()
        assert Cover.one(3).is_one_cube()

    def test_parse_zero(self):
        assert parse("0").is_zero()
        assert Cover.parse("", NAMES).is_zero()

    def test_rejects_out_of_range_cubes(self):
        with pytest.raises(ValueError):
            Cover(1, [Cube.literal(3, True)])

    def test_from_minterms(self):
        cover = Cover.from_minterms([0, 3], 2)
        assert cover.evaluate(0)
        assert cover.evaluate(3)
        assert not cover.evaluate(1)

    def test_to_str_roundtrip(self):
        text = "ab' + cd + e"
        assert parse(text).to_str(NAMES) == text


class TestQueries:
    def test_counts(self):
        cover = parse("ab + c")
        assert cover.num_cubes() == 2
        assert cover.num_literals() == 3

    def test_support(self):
        cover = parse("ab + d'")
        assert cover.support_vars() == [0, 1, 3]

    def test_phase_counts(self):
        cover = parse("ab + a'c + a")
        assert cover.var_phase_counts(0) == (2, 1)

    def test_most_binate_var(self):
        cover = parse("ab + a'c + ad")
        assert cover.most_binate_var() == 0
        assert Cover.zero(3).most_binate_var() is None


class TestAlgebra:
    def test_union(self):
        assert parse("a").union(parse("b")).num_cubes() == 2

    def test_union_checks_compat(self):
        with pytest.raises(ValueError):
            parse("a").union(Cover.zero(2))

    def test_intersect_semantics(self):
        left, right = parse("a + b"), parse("c")
        product = left.intersect(right)
        assert product.truth_mask() == left.truth_mask() & right.truth_mask()

    def test_cofactor(self):
        cover = parse("ab + a'c")
        assert cover.cofactor(0, True).to_str(NAMES) == "b"
        assert cover.cofactor(0, False).to_str(NAMES) == "c"

    def test_cofactor_cube(self):
        cover = parse("ab + cd")
        cofactored = cover.cofactor_cube(Cube.parse("a", NAMES))
        assert cofactored.to_str(NAMES) == "b + cd"

    def test_single_cube_containment(self):
        cover = parse("ab + a + abc")
        trimmed = cover.single_cube_containment()
        assert trimmed.num_cubes() == 1
        assert trimmed.cubes[0] == Cube.parse("a", NAMES)


class TestEvaluation:
    def test_evaluate(self):
        cover = parse("ab + c'")
        assert cover.evaluate(0b011)  # a=1 b=1 c=0
        assert cover.evaluate(0b000)  # c=0
        assert not cover.evaluate(0b100)  # only c=1

    def test_minterms_deduplicated(self):
        cover = parse("a + a")
        assert len(list(cover.minterms())) == 16

    def test_equivalent(self):
        assert parse("a + a'b").equivalent(parse("a + b"))
        assert not parse("a").equivalent(parse("b"))

    def test_truth_mask_guard(self):
        with pytest.raises(ValueError):
            Cover.zero(21).truth_mask()


class TestRemap:
    def test_remap_renames_variables(self):
        cover = parse("ab")
        swapped = cover.remap([1, 0, 2, 3, 4], 5)
        assert swapped.cubes[0] == Cube.parse("ab", NAMES)  # symmetric

        moved = parse("a").remap([2, 1, 0, 3, 4], 5)
        assert moved.cubes[0] == Cube.parse("c", NAMES)

    def test_extended(self):
        cover = parse("ab")
        wider = cover.extended(7)
        assert wider.num_vars == 7
        with pytest.raises(ValueError):
            wider.extended(3)


class TestProperties:
    @given(cover_st(4))
    def test_scc_preserves_function(self, cover):
        assert cover.single_cube_containment().truth_mask() == cover.truth_mask()

    @given(cover_st(4), cover_st(4))
    def test_intersect_property(self, a, b):
        assert a.intersect(b).truth_mask() == (a.truth_mask() & b.truth_mask())

    @given(cover_st(4))
    def test_cofactor_shannon(self, cover):
        # f = x·f_x + x'·f_x'
        pos = cover.cofactor(0, True)
        neg = cover.cofactor(0, False)
        x = Cover(4, [Cube.literal(0, True)])
        nx = Cover(4, [Cube.literal(0, False)])
        rebuilt = x.intersect(pos).union(nx.intersect(neg))
        assert rebuilt.truth_mask() == cover.truth_mask()
