"""Tests for repro.fixedpoint.overflow."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import OverflowModeError
from repro.fixedpoint.overflow import (
    OverflowMode,
    apply_overflow_array,
    apply_overflow_raw,
)
from repro.fixedpoint.qformat import QFormat

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
FORMATS = [QFormat(1, 0), QFormat(3, 0), QFormat(3, 5), QFormat(16, 16), QFormat(31, 32), QFormat(32, 32)]


class TestWrap:
    def test_in_range_unchanged(self, q3_0):
        for raw in range(-4, 4):
            assert apply_overflow_raw(raw, q3_0, OverflowMode.WRAP) == raw

    def test_positive_overflow_wraps_negative(self, q3_0):
        assert apply_overflow_raw(4, q3_0, OverflowMode.WRAP) == -4
        assert apply_overflow_raw(6, q3_0, OverflowMode.WRAP) == -2

    def test_negative_overflow_wraps_positive(self, q3_0):
        assert apply_overflow_raw(-5, q3_0, OverflowMode.WRAP) == 3

    def test_array(self, q3_0):
        out = apply_overflow_raw(np.array([6, -5, 2]), q3_0, OverflowMode.WRAP)
        assert list(out) == [-2, 3, 2]

    @given(st.integers(min_value=-(10**9), max_value=10**9))
    def test_wrap_additive_homomorphism(self, value):
        # wrap(a + b) == wrap(wrap(a) + wrap(b)) — the property that makes
        # intermediate overflow harmless (paper Section 3).
        fmt = QFormat(3, 2)
        a, b = value, value // 3 + 7
        lhs = apply_overflow_raw(a + b, fmt, OverflowMode.WRAP)
        rhs = apply_overflow_raw(
            int(apply_overflow_raw(a, fmt, OverflowMode.WRAP))
            + int(apply_overflow_raw(b, fmt, OverflowMode.WRAP)),
            fmt,
            OverflowMode.WRAP,
        )
        assert lhs == rhs


class TestSaturate:
    def test_clamps_high(self, q3_0):
        assert apply_overflow_raw(100, q3_0, OverflowMode.SATURATE) == 3

    def test_clamps_low(self, q3_0):
        assert apply_overflow_raw(-100, q3_0, OverflowMode.SATURATE) == -4

    def test_array(self, q3_0):
        out = apply_overflow_raw(np.array([100, -100, 1]), q3_0, OverflowMode.SATURATE)
        assert list(out) == [3, -4, 1]


class TestRaise:
    def test_in_range_passes(self, q3_0):
        assert apply_overflow_raw(3, q3_0, OverflowMode.RAISE) == 3

    def test_overflow_raises_with_context(self, q3_0):
        with pytest.raises(OverflowModeError) as excinfo:
            apply_overflow_raw(4, q3_0, OverflowMode.RAISE)
        assert excinfo.value.lo == q3_0.min_value
        assert excinfo.value.hi == q3_0.max_value

    def test_array_overflow_raises(self, q3_0):
        with pytest.raises(OverflowModeError):
            apply_overflow_raw(np.array([0, 4]), q3_0, OverflowMode.RAISE)


class TestCoercion:
    def test_string_mode(self, q3_0):
        assert apply_overflow_raw(6, q3_0, "wrap") == -2
        assert apply_overflow_raw(6, q3_0, "saturate") == 3

    def test_bad_string(self, q3_0):
        with pytest.raises(ValueError):
            apply_overflow_raw(1, q3_0, "explode")


class TestApplyOverflowArray:
    """The vectorized wrap/saturate equals the scalar form, element for element."""

    @staticmethod
    def scalar(raws, fmt, mode):
        return [int(apply_overflow_raw(int(r), fmt, mode)) for r in raws]

    @pytest.mark.parametrize("fmt", FORMATS, ids=str)
    @pytest.mark.parametrize("mode", [OverflowMode.WRAP, OverflowMode.SATURATE])
    @given(
        raws=st.lists(
            st.integers(min_value=INT64_MIN, max_value=INT64_MAX), min_size=1, max_size=20
        )
    )
    def test_int64_matches_scalar(self, fmt, mode, raws):
        got = apply_overflow_array(np.array(raws, dtype=np.int64), fmt, mode)
        assert got.dtype == np.int64
        assert got.tolist() == self.scalar(raws, fmt, mode)

    @pytest.mark.parametrize("fmt", FORMATS, ids=str)
    @pytest.mark.parametrize("mode", [OverflowMode.WRAP, OverflowMode.SATURATE])
    @given(
        raws=st.lists(
            st.integers(min_value=-(2**130), max_value=2**130), min_size=1, max_size=20
        )
    )
    def test_object_matches_scalar(self, fmt, mode, raws):
        got = apply_overflow_array(np.array(raws, dtype=object), fmt, mode)
        assert got.dtype == object
        assert [int(v) for v in got] == self.scalar(raws, fmt, mode)

    @pytest.mark.parametrize("fmt", FORMATS, ids=str)
    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_raise_flags_exactly_the_out_of_range_words(self, fmt, dtype):
        inside = np.array([fmt.min_raw, 0, fmt.max_raw], dtype=dtype)
        assert apply_overflow_array(inside, fmt, OverflowMode.RAISE).tolist() == inside.tolist()
        if fmt.word_length < 64 or dtype is object:
            outside = np.array([0, fmt.max_raw + 1], dtype=dtype)
            with pytest.raises(OverflowModeError):
                apply_overflow_array(outside, fmt, OverflowMode.RAISE)

    def test_zero_d_wide_object_saturates(self):
        fmt = QFormat(32, 32)
        got = apply_overflow_array(np.array(2**100, dtype=object), fmt, OverflowMode.SATURATE)
        assert got.shape == () and int(got) == fmt.max_raw

    @pytest.mark.parametrize("fmt", FORMATS, ids=str)
    def test_wrap_raw_and_apply_overflow_raw_route_to_it(self, fmt):
        raws = np.array([INT64_MIN, -5, 0, 5, INT64_MAX], dtype=np.int64)
        want = self.scalar(raws.tolist(), fmt, OverflowMode.WRAP)
        for got in (fmt.wrap_raw(raws), apply_overflow_raw(raws, fmt, OverflowMode.WRAP)):
            assert got.dtype == np.int64 and got.tolist() == want
