"""Unit and property tests for the positional-cube representation."""

import pytest
from hypothesis import given

from repro.twolevel.cube import Cube
from tests.conftest import cube_st

NAMES = list("abcde")


def parse(text: str) -> Cube:
    return Cube.parse(text, NAMES)


class TestConstruction:
    def test_full_cube_has_no_literals(self):
        assert Cube.full().num_literals() == 0
        assert Cube.full().is_full()

    def test_literal_positive(self):
        cube = Cube.literal(2, True)
        assert cube.phase(2) is True
        assert cube.num_literals() == 1

    def test_literal_negative(self):
        cube = Cube.literal(0, False)
        assert cube.phase(0) is False

    def test_from_literals(self):
        cube = Cube.from_literals([(0, True), (3, False)])
        assert cube.phase(0) is True
        assert cube.phase(3) is False
        assert cube.phase(1) is None

    def test_conflicting_masks_rejected(self):
        with pytest.raises(ValueError):
            Cube(0b1, 0b1)

    def test_negative_masks_rejected(self):
        with pytest.raises(ValueError):
            Cube(-1, 0)

    def test_from_minterm(self):
        cube = Cube.from_minterm(0b101, 3)
        assert cube.phase(0) is True
        assert cube.phase(1) is False
        assert cube.phase(2) is True
        assert cube.num_literals() == 3

    def test_parse_roundtrip(self):
        for text in ("ab'c", "a", "b'", "1", "abcde"):
            assert parse(text).to_str(NAMES) == text

    def test_parse_multichar_names(self):
        cube = Cube.parse("sel0 sel1'", ["sel0", "sel1"])
        assert cube.phase(0) is True
        assert cube.phase(1) is False

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse("a$")


class TestContainment:
    def test_bigger_cube_contains_smaller(self):
        # b contains abc: every minterm of abc has b=1.
        assert parse("b").contains(parse("abc"))

    def test_smaller_does_not_contain_bigger(self):
        assert not parse("abc").contains(parse("b"))

    def test_full_contains_everything(self):
        assert Cube.full().contains(parse("ab'c"))

    def test_phase_mismatch_not_contained(self):
        assert not parse("b'").contains(parse("ab"))

    def test_self_containment(self):
        cube = parse("ab'")
        assert cube.contains(cube)


class TestAlgebra:
    def test_intersect_merges_literals(self):
        assert parse("ab").intersect(parse("c")) == parse("abc")

    def test_intersect_conflict_is_none(self):
        assert parse("ab").intersect(parse("b'")) is None

    def test_distance_counts_conflicts(self):
        assert parse("ab").distance(parse("a'b'")) == 2
        assert parse("ab").distance(parse("ab")) == 0
        assert parse("ab").distance(parse("b'c")) == 1

    def test_consensus_exists_at_distance_one(self):
        consensus = parse("ab").consensus(parse("a'c"))
        assert consensus == parse("bc")

    def test_consensus_undefined_otherwise(self):
        assert parse("ab").consensus(parse("a'b'")) is None
        assert parse("ab").consensus(parse("ac")) is None

    def test_supercube(self):
        assert parse("abc").supercube(parse("abd")) == parse("ab")

    def test_cofactor_drops_literal(self):
        assert parse("ab").cofactor(0, True) == parse("b")

    def test_cofactor_vanishes_on_conflict(self):
        assert parse("ab").cofactor(0, False) is None

    def test_cofactor_cube(self):
        assert parse("abc").cofactor_cube(parse("ac")) == parse("b")
        assert parse("a'b").cofactor_cube(parse("a")) is None

    def test_without_var(self):
        assert parse("abc").without_var(1) == parse("ac")


class TestEvaluation:
    def test_evaluate(self):
        cube = parse("ab'")
        assert cube.evaluate(0b01)  # a=1, b=0
        assert not cube.evaluate(0b11)
        assert not cube.evaluate(0b00)

    def test_minterms_enumeration(self):
        minterms = sorted(parse("ab'").minterms(3))
        assert minterms == [0b001, 0b101]

    def test_truth_mask(self):
        assert parse("a").truth_mask(2) == 0b1010


class TestDunder:
    def test_equality_and_hash(self):
        assert parse("ab") == parse("ab")
        assert hash(parse("ab")) == hash(parse("ab"))
        assert parse("ab") != parse("ab'")

    def test_ordering_is_total(self):
        cubes = [parse("b"), parse("a"), Cube.full()]
        assert sorted(cubes) == sorted(cubes, reverse=True)[::-1]

    def test_repr(self):
        assert "x0x1" in repr(Cube.from_literals([(0, True), (1, True)]))


class TestProperties:
    @given(cube_st(4), cube_st(4))
    def test_containment_matches_minterms(self, a, b):
        minterms_a = set(a.minterms(4))
        minterms_b = set(b.minterms(4))
        assert a.contains(b) == (minterms_b <= minterms_a)

    @given(cube_st(4), cube_st(4))
    def test_intersection_matches_minterms(self, a, b):
        expected = set(a.minterms(4)) & set(b.minterms(4))
        product = a.intersect(b)
        if product is None:
            assert expected == set()
        else:
            assert set(product.minterms(4)) == expected

    @given(cube_st(4), cube_st(4))
    def test_distance_zero_iff_intersecting(self, a, b):
        assert (a.distance(b) == 0) == (a.intersect(b) is not None)

    @given(cube_st(4), cube_st(4))
    def test_supercube_contains_both(self, a, b):
        sup = a.supercube(b)
        assert sup.contains(a) and sup.contains(b)

    @given(cube_st(4))
    def test_parse_roundtrip_property(self, cube):
        names = list("abcd")
        assert Cube.parse(cube.to_str(names), names) == cube

    @given(cube_st(4), cube_st(4))
    def test_consensus_is_implied(self, a, b):
        consensus = a.consensus(b)
        if consensus is not None:
            union = set(a.minterms(4)) | set(b.minterms(4))
            assert set(consensus.minterms(4)) <= union
