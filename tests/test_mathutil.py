"""Unit and property tests for repro.util.mathutil."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.mathutil import (
    ceil_div,
    divisor_pairs,
    geometric_range,
    ilog2,
    is_power_of_two,
    next_power_of_two,
    prev_power_of_two,
    split_indices,
    unit_step,
)


class TestUnitStep:
    def test_above_one(self):
        assert unit_step(2) == 1
        assert unit_step(1.5) == 1

    def test_at_or_below_one(self):
        assert unit_step(1) == 0
        assert unit_step(0) == 0
        assert unit_step(-3) == 0


class TestPowersOfTwo:
    def test_is_power_of_two_accepts(self):
        for e in range(20):
            assert is_power_of_two(1 << e)

    def test_is_power_of_two_rejects(self):
        for x in (0, -1, -2, 3, 5, 6, 7, 9, 12, 100):
            assert not is_power_of_two(x)

    def test_ilog2_exact(self):
        for e in range(20):
            assert ilog2(1 << e) == e

    def test_ilog2_rejects_non_powers(self):
        with pytest.raises(ValueError):
            ilog2(3)
        with pytest.raises(ValueError):
            ilog2(0)

    def test_next_power_of_two(self):
        assert next_power_of_two(0) == 1
        assert next_power_of_two(1) == 1
        assert next_power_of_two(2) == 2
        assert next_power_of_two(3) == 4
        assert next_power_of_two(1000) == 1024

    def test_prev_power_of_two(self):
        assert prev_power_of_two(1) == 1
        assert prev_power_of_two(2) == 2
        assert prev_power_of_two(3) == 2
        assert prev_power_of_two(1000) == 512

    def test_prev_power_of_two_rejects_zero(self):
        with pytest.raises(ValueError):
            prev_power_of_two(0)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_prev_next_bracket(self, x):
        lo, hi = prev_power_of_two(x), next_power_of_two(x)
        assert lo <= x <= hi
        assert is_power_of_two(lo) and is_power_of_two(hi)
        assert hi <= 2 * lo or x == lo


class TestCeilDiv:
    def test_exact(self):
        assert ceil_div(8, 4) == 2

    def test_remainder(self):
        assert ceil_div(9, 4) == 3

    def test_zero_numerator(self):
        assert ceil_div(0, 4) == 0

    def test_invalid_denominator(self):
        with pytest.raises(ValueError):
            ceil_div(4, 0)

    @given(st.integers(0, 10**6), st.integers(1, 10**4))
    def test_matches_math_ceil(self, a, b):
        assert ceil_div(a, b) == math.ceil(a / b)


class TestDivisorPairs:
    def test_twelve(self):
        pairs = list(divisor_pairs(12))
        assert (3, 4) in pairs and (12, 1) in pairs and (1, 12) in pairs
        for a, b in pairs:
            assert a * b == 12

    def test_one(self):
        assert list(divisor_pairs(1)) == [(1, 1)]

    def test_invalid(self):
        with pytest.raises(ValueError):
            list(divisor_pairs(0))


class TestSplitIndices:
    def test_even_split(self):
        assert split_indices(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_ragged_split_front_loaded(self):
        assert split_indices(7, 3) == [(0, 3), (3, 5), (5, 7)]

    def test_more_parts_than_items(self):
        chunks = split_indices(2, 4)
        assert chunks == [(0, 1), (1, 2), (2, 2), (2, 2)]

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            split_indices(4, 0)

    @given(st.integers(0, 1000), st.integers(1, 50))
    def test_partition_property(self, n, parts):
        chunks = split_indices(n, parts)
        assert len(chunks) == parts
        assert chunks[0][0] == 0 and chunks[-1][1] == n
        for (a0, a1), (b0, b1) in zip(chunks, chunks[1:]):
            assert a1 == b0
            assert a1 - a0 >= b1 - b0  # first chunks never smaller
        sizes = [hi - lo for lo, hi in chunks]
        assert max(sizes) - min(sizes) <= 1


class TestGeometricRange:
    def test_default_factor(self):
        assert geometric_range(1, 16) == [1, 2, 4, 8, 16]

    def test_factor_four(self):
        assert geometric_range(4, 256, 4) == [4, 16, 64, 256]

    def test_hi_not_hit_exactly(self):
        assert geometric_range(1, 10) == [1, 2, 4, 8]

    def test_invalid(self):
        with pytest.raises(ValueError):
            geometric_range(0, 4)
        with pytest.raises(ValueError):
            geometric_range(4, 2)
        with pytest.raises(ValueError):
            geometric_range(1, 4, 1)
