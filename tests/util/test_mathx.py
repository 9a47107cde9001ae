"""Unit and property tests for repro.util.mathx."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.util.mathx import ceil_div, ilog2_ceil, int_nth_root_floor, ipow_ceil


class TestCeilDiv:
    def test_exact(self):
        assert ceil_div(6, 3) == 2

    def test_rounds_up(self):
        assert ceil_div(7, 3) == 3

    def test_zero_numerator(self):
        assert ceil_div(0, 5) == 0

    def test_negative_numerator(self):
        assert ceil_div(-1, 2) == 0

    def test_rejects_nonpositive_divisor(self):
        with pytest.raises(ValueError):
            ceil_div(1, 0)

    @given(st.integers(0, 10**9), st.integers(1, 10**6))
    def test_matches_math_ceil(self, a, b):
        assert ceil_div(a, b) == math.ceil(a / b) or ceil_div(a, b) == -(-a // b)

    @given(st.integers(0, 10**9), st.integers(1, 10**6))
    def test_bracket(self, a, b):
        q = ceil_div(a, b)
        assert (q - 1) * b < a <= q * b or (a == 0 and q == 0)


class TestIntegerLogs:
    def test_ceil_powers(self):
        for k in range(20):
            assert ilog2_ceil(1 << k) == k

    def test_ceil_between_powers(self):
        assert ilog2_ceil(9) == 4

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            ilog2_ceil(0)

    @given(st.integers(1, 10**12))
    def test_floor_ceil_sandwich(self, x):
        c = ilog2_ceil(x)
        assert x <= 2**c
        assert c == 0 or 2 ** (c - 1) < x


class TestNthRoot:
    @given(st.integers(0, 10**18), st.integers(1, 8))
    def test_floor_property(self, x, n):
        r = int_nth_root_floor(x, n)
        assert r**n <= x < (r + 1) ** n

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            int_nth_root_floor(-1, 2)
        with pytest.raises(ValueError):
            int_nth_root_floor(4, 0)


class TestIpowCeil:
    def test_square_root(self):
        assert ipow_ceil(100, 1, 2) == 10
        assert ipow_ceil(101, 1, 2) == 11

    def test_two_thirds(self):
        assert ipow_ceil(1000, 2, 3) == 100

    def test_identity(self):
        assert ipow_ceil(7, 1, 1) == 7

    @given(st.integers(1, 10**6), st.integers(1, 4), st.integers(1, 4))
    def test_ceiling_property(self, base, num, den):
        r = ipow_ceil(base, num, den)
        # r is the smallest integer with r**den >= base**num.
        assert r**den >= base**num
        assert r == 0 or (r - 1) ** den < base**num
