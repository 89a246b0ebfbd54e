"""Tests for kernels and weak division."""

from hypothesis import given, settings

from repro.twolevel.cube import Cube
from repro.twolevel.cover import Cover
from repro.network.algebraic import (
    all_kernels,
    common_cube,
    divide_by_literal,
    is_cube_free,
    literal_counts,
    make_cube_free,
    quick_divisor,
    weak_division,
)
from tests.conftest import cover_st

NAMES = list("abcdefg")


def parse(text: str) -> Cover:
    return Cover.parse(text, NAMES)


class TestCubeFree:
    def test_common_cube(self):
        assert common_cube(parse("abc + abd")) == Cube.parse("ab", NAMES)
        assert common_cube(parse("ab + cd")).is_full()

    def test_is_cube_free(self):
        assert is_cube_free(parse("ab + cd"))
        assert not is_cube_free(parse("abc + abd"))
        assert not is_cube_free(parse("ab"))  # single cube never free

    def test_make_cube_free(self):
        result = make_cube_free(parse("abc + abd"))
        assert result.equivalent(parse("c + d"))


class TestLiteralOps:
    def test_divide_by_literal(self):
        quotient = divide_by_literal(parse("ab + ac + bd"), 0, True)
        assert quotient.to_str(NAMES) == "b + c"

    def test_divide_by_negative_literal(self):
        quotient = divide_by_literal(parse("a'b + ac"), 0, False)
        assert quotient.to_str(NAMES) == "b"

    def test_literal_counts(self):
        counts = dict(
            ((v, p), c) for v, p, c in literal_counts(parse("ab + a'c + ad"))
        )
        assert counts[(0, True)] == 2
        assert counts[(0, False)] == 1


class TestWeakDivision:
    def test_textbook_example(self):
        quotient, remainder = weak_division(
            parse("ab + ac + ad' + a'b'c'd"), parse("b + c")
        )
        assert quotient.to_str(NAMES) == "a"
        assert remainder.to_str(NAMES) == "ad' + a'b'c'd"

    def test_failing_division(self):
        quotient, remainder = weak_division(parse("ab + b'c"), parse("b + c"))
        assert quotient.is_zero()
        assert remainder is not None

    def test_divisor_variable_blocks_quotient(self):
        # Quotient cubes may not mention divisor-support variables.
        quotient, _ = weak_division(parse("ab + cb"), parse("a + c"))
        assert quotient.to_str(NAMES) == "b"

    def test_division_by_zero_rejected(self):
        import pytest

        with pytest.raises(ZeroDivisionError):
            weak_division(parse("a"), Cover.zero(7))

    @given(cover_st(5, 6), cover_st(5, 3))
    @settings(max_examples=80, deadline=None)
    def test_reconstruction_property(self, dividend, divisor):
        if divisor.is_zero():
            return
        quotient, remainder = weak_division(dividend, divisor)
        rebuilt = divisor.intersect(quotient).union(remainder)
        assert rebuilt.truth_mask() == dividend.truth_mask()
        # Algebraic condition: disjoint supports.
        assert not (quotient.support() & divisor.support())


class TestKernels:
    def test_textbook_kernels(self):
        kernels = all_kernels(parse("ace + bce + de + g"))
        texts = {k.to_str(NAMES) for k, _ in kernels}
        assert "a + b" in texts
        assert "ac + bc + d" in texts
        assert "ace + bce + de + g" in texts

    def test_cokernels_reconstruct(self):
        cover = parse("ace + bce + de + g")
        for kernel, cokernel in all_kernels(cover):
            product = kernel.intersect(Cover(kernel.num_vars, [cokernel]))
            # Every kernel·cokernel product is contained in the cover.
            for cube in product.cubes:
                assert any(c.contains(cube) for c in cover.cubes), (
                    kernel.to_str(NAMES),
                    cokernel.to_str(NAMES),
                )

    def test_kernels_are_cube_free(self):
        for kernel, _ in all_kernels(parse("ace + bce + de + g")):
            assert common_cube(kernel).is_full()

    def test_no_kernels_for_single_cube(self):
        assert all_kernels(parse("abc")) == []

    def test_quick_divisor_is_a_kernel(self):
        cover = parse("ace + bce + de + g")
        quick = quick_divisor(cover)
        kernel_texts = {k.to_str(NAMES) for k, _ in all_kernels(cover)}
        assert quick.to_str(NAMES) in kernel_texts

    def test_quick_divisor_none_when_no_sharing(self):
        assert quick_divisor(parse("ab + cd")) is None
