"""Tests for the ROBDD manager."""

import pytest
from hypothesis import given, settings

from repro.bdd import BDD_ONE, BDD_ZERO, BddManager
from repro.twolevel.cover import Cover
from tests.conftest import cover_st

NAMES = list("abcd")


def mgr4() -> BddManager:
    return BddManager(4)


def from_text(manager: BddManager, text: str) -> int:
    return manager.from_cover(Cover.parse(text, NAMES))


class TestBasics:
    def test_terminals(self):
        m = mgr4()
        assert m.is_terminal(BDD_ZERO)
        assert m.is_terminal(BDD_ONE)

    def test_var_out_of_range(self):
        with pytest.raises(ValueError):
            mgr4().var(7)

    def test_var_and_nvar_complement(self):
        m = mgr4()
        assert m.not_(m.var(1)) == m.nvar(1)

    def test_mk_reduction(self):
        m = mgr4()
        assert m.mk(0, BDD_ONE, BDD_ONE) == BDD_ONE

    def test_hash_consing(self):
        m = mgr4()
        assert m.var(2) == m.var(2)

    def test_size_grows(self):
        m = mgr4()
        before = m.size()
        m.var(0)
        assert m.size() == before + 1


class TestConnectives:
    def test_and_or_identities(self):
        m = mgr4()
        x = m.var(0)
        assert m.and_(x, BDD_ONE) == x
        assert m.and_(x, BDD_ZERO) == BDD_ZERO
        assert m.or_(x, BDD_ZERO) == x
        assert m.or_(x, BDD_ONE) == BDD_ONE

    def test_contradiction_and_excluded_middle(self):
        m = mgr4()
        x = m.var(0)
        assert m.and_(x, m.not_(x)) == BDD_ZERO
        assert m.or_(x, m.not_(x)) == BDD_ONE

    def test_de_morgan(self):
        m = mgr4()
        x, y = m.var(0), m.var(1)
        assert m.not_(m.and_(x, y)) == m.or_(m.not_(x), m.not_(y))

    def test_xor(self):
        m = mgr4()
        x, y = m.var(0), m.var(1)
        xor = m.xor(x, y)
        assert m.evaluate(xor, 0b01)
        assert m.evaluate(xor, 0b10)
        assert not m.evaluate(xor, 0b11)
        assert not m.evaluate(xor, 0b00)

    def test_implies(self):
        m = mgr4()
        ab = from_text(m, "ab")
        a = from_text(m, "a")
        assert m.implies(ab, a)
        assert not m.implies(a, ab)

    def test_canonical_equality(self):
        m = mgr4()
        left = from_text(m, "ab + a'c")
        right = m.ite(m.var(0), m.var(1), m.var(2))
        assert left == right


class TestStructure:
    def test_restrict(self):
        m = mgr4()
        f = from_text(m, "ab + a'c")
        assert m.restrict(f, 0, True) == m.var(1)
        assert m.restrict(f, 0, False) == m.var(2)

    def test_exists_forall(self):
        m = mgr4()
        f = from_text(m, "ab")
        assert m.exists(f, 0) == m.var(1)

    def test_constrain_agrees_on_care_set(self):
        m = mgr4()
        f = from_text(m, "ab + a'c")
        c = from_text(m, "a")
        fc = m.constrain(f, c)
        assert m.and_(c, m.xor(fc, f)) == BDD_ZERO

    def test_constrain_by_one(self):
        m = mgr4()
        f = from_text(m, "ab")
        assert m.constrain(f, BDD_ONE) == f

    def test_constrain_zero_rejected(self):
        with pytest.raises(ValueError):
            mgr4().constrain(BDD_ONE, BDD_ZERO)

    def test_constrain_division_identity(self):
        # Stanion/Sechen: f = c·(f ↓ c) + c'·f
        m = mgr4()
        f = from_text(m, "ab + cd + a'd")
        c = from_text(m, "b + c")
        quotient = m.constrain(f, c)
        rebuilt = m.or_(
            m.and_(c, quotient), m.and_(m.not_(c), f)
        )
        assert rebuilt == f


class TestAnalysis:
    def test_cubes_are_disjoint_and_cover(self):
        m = mgr4()
        cover = Cover.parse("ab + a'c + d", NAMES)
        f = m.from_cover(cover)
        back = m.to_cover(f, 4)
        assert back.truth_mask() == cover.truth_mask()
        masks = [c.truth_mask(4) for c in back.cubes]
        for i, a in enumerate(masks):
            for b in masks[i + 1 :]:
                assert a & b == 0


class TestCoverInterop:
    def test_from_cover_width_check(self):
        m = BddManager(2)
        with pytest.raises(ValueError):
            m.from_cover(Cover.parse("d", NAMES))

    @given(cover_st(4))
    @settings(max_examples=80, deadline=None)
    def test_cover_roundtrip_property(self, cover):
        m = mgr4()
        f = m.from_cover(cover)
        assert m.to_cover(f, 4).truth_mask() == cover.truth_mask()

    @given(cover_st(4), cover_st(4))
    @settings(max_examples=80, deadline=None)
    def test_connectives_match_covers(self, a, b):
        m = mgr4()
        fa, fb = m.from_cover(a), m.from_cover(b)
        assert m.to_cover(m.and_(fa, fb), 4).truth_mask() == (
            a.truth_mask() & b.truth_mask()
        )
        assert m.to_cover(m.or_(fa, fb), 4).truth_mask() == (
            a.truth_mask() | b.truth_mask()
        )
