"""Tests for repro.fixedpoint.rounding."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.fixedpoint.rounding import (
    RoundingMode,
    round_to_int,
    shift_right_rounded,
    shift_right_rounded_array,
)

DETERMINISTIC_MODES = [m for m in RoundingMode if m is not RoundingMode.STOCHASTIC]
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


class TestCoerce:
    def test_enum_passthrough(self):
        assert RoundingMode.coerce(RoundingMode.FLOOR) is RoundingMode.FLOOR

    def test_string_coercion(self):
        assert RoundingMode.coerce("floor") is RoundingMode.FLOOR
        assert RoundingMode.coerce("nearest-even") is RoundingMode.NEAREST_EVEN

    def test_bad_string(self):
        with pytest.raises(ValueError):
            RoundingMode.coerce("bogus")


class TestRoundToInt:
    @pytest.mark.parametrize(
        "value,expected",
        [(0.5, 1), (-0.5, -1), (1.5, 2), (-1.5, -2), (2.4, 2), (-2.4, -2)],
    )
    def test_nearest_away(self, value, expected):
        assert int(round_to_int(value, RoundingMode.NEAREST_AWAY)) == expected

    @pytest.mark.parametrize(
        "value,expected",
        [(0.5, 0), (-0.5, 0), (1.5, 2), (-1.5, -2), (2.5, 2), (3.5, 4)],
    )
    def test_nearest_even(self, value, expected):
        assert int(round_to_int(value, RoundingMode.NEAREST_EVEN)) == expected

    @pytest.mark.parametrize("value,expected", [(1.9, 1), (-1.1, -2), (-0.001, -1)])
    def test_floor(self, value, expected):
        assert int(round_to_int(value, RoundingMode.FLOOR)) == expected

    @pytest.mark.parametrize("value,expected", [(1.1, 2), (-1.9, -1), (0.001, 1)])
    def test_ceil(self, value, expected):
        assert int(round_to_int(value, RoundingMode.CEIL)) == expected

    @pytest.mark.parametrize("value,expected", [(1.9, 1), (-1.9, -1), (0.5, 0)])
    def test_toward_zero(self, value, expected):
        assert int(round_to_int(value, RoundingMode.TOWARD_ZERO)) == expected

    def test_vectorized(self):
        out = round_to_int(np.array([0.4, 0.6, -0.6]), RoundingMode.NEAREST_AWAY)
        assert out.dtype == np.int64
        assert list(out) == [0, 1, -1]

    def test_stochastic_requires_rng(self):
        with pytest.raises(ValueError):
            round_to_int(0.5, RoundingMode.STOCHASTIC)

    def test_stochastic_unbiased(self, rng):
        values = np.full(20_000, 0.25)
        out = round_to_int(values, RoundingMode.STOCHASTIC, rng=rng)
        assert set(np.unique(out)) <= {0, 1}
        assert abs(float(out.mean()) - 0.25) < 0.02

    def test_stochastic_exact_integers_unchanged(self, rng):
        values = np.array([1.0, -3.0, 0.0])
        out = round_to_int(values, RoundingMode.STOCHASTIC, rng=rng)
        assert list(out) == [1, -3, 0]

    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_all_modes_within_one(self, value):
        for mode in (
            RoundingMode.NEAREST_AWAY,
            RoundingMode.NEAREST_EVEN,
            RoundingMode.FLOOR,
            RoundingMode.CEIL,
            RoundingMode.TOWARD_ZERO,
        ):
            out = int(round_to_int(value, mode))
            assert abs(out - value) <= 1.0


class TestShiftRightRounded:
    @given(
        st.integers(min_value=-(2**40), max_value=2**40),
        st.integers(min_value=0, max_value=20),
    )
    def test_matches_float_nearest_away(self, raw, shift):
        exact = raw / (2**shift)
        got = shift_right_rounded(raw, shift, RoundingMode.NEAREST_AWAY)
        expected = int(np.sign(exact) * np.floor(abs(exact) + 0.5))
        assert got == expected

    @given(
        st.integers(min_value=-(2**40), max_value=2**40),
        st.integers(min_value=0, max_value=20),
    )
    def test_matches_float_floor(self, raw, shift):
        assert shift_right_rounded(raw, shift, RoundingMode.FLOOR) == raw >> shift

    @given(
        st.integers(min_value=-(2**40), max_value=2**40),
        st.integers(min_value=0, max_value=20),
    )
    def test_matches_float_nearest_even(self, raw, shift):
        got = shift_right_rounded(raw, shift, RoundingMode.NEAREST_EVEN)
        expected = int(np.rint(raw / (2**shift)))
        assert got == expected

    @pytest.mark.parametrize(
        "raw,shift,mode,expected",
        [
            (-3, 1, RoundingMode.NEAREST_AWAY, -2),
            (3, 1, RoundingMode.NEAREST_AWAY, 2),
            (-1, 1, RoundingMode.NEAREST_AWAY, -1),
            (1, 1, RoundingMode.NEAREST_AWAY, 1),
            (-1, 1, RoundingMode.NEAREST_EVEN, 0),
            (1, 1, RoundingMode.NEAREST_EVEN, 0),
            (-3, 1, RoundingMode.TOWARD_ZERO, -1),
            (-3, 1, RoundingMode.CEIL, -1),
            (-3, 1, RoundingMode.FLOOR, -2),
        ],
    )
    def test_half_cases(self, raw, shift, mode, expected):
        assert shift_right_rounded(raw, shift, mode) == expected

    def test_zero_shift_identity(self):
        assert shift_right_rounded(12345, 0) == 12345

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            shift_right_rounded(1, -1)

    def test_exact_beyond_float53(self):
        # A value whose float division would lose bits.
        raw = (1 << 60) + 1
        assert shift_right_rounded(raw, 1, RoundingMode.FLOOR) == (raw - 1) // 2


class TestShiftRightRoundedArray:
    """The vectorized rounder equals the scalar one, element for element."""

    @staticmethod
    def assert_matches_scalar(raws, shift, mode, dtype):
        arr = np.array(raws, dtype=dtype)
        got = shift_right_rounded_array(arr, shift, mode)
        assert got.dtype == np.dtype(dtype)
        assert [int(v) for v in got] == [
            shift_right_rounded(int(r), shift, mode) for r in raws
        ]

    @pytest.mark.parametrize("mode", DETERMINISTIC_MODES)
    @pytest.mark.parametrize("dtype,max_shift", [(np.int64, 63), (object, 70)])
    @given(
        raws=st.lists(
            st.integers(min_value=INT64_MIN, max_value=INT64_MAX), min_size=1, max_size=20
        ),
        data=st.data(),
    )
    def test_matches_scalar_over_int64_range(self, mode, dtype, max_shift, raws, data):
        shift = data.draw(st.integers(min_value=0, max_value=max_shift))
        self.assert_matches_scalar(raws, shift, mode, dtype)

    @pytest.mark.parametrize("mode", DETERMINISTIC_MODES)
    @given(
        raws=st.lists(
            st.integers(min_value=-(2**126), max_value=2**126), min_size=1, max_size=20
        ),
        shift=st.integers(min_value=0, max_value=70),
    )
    def test_matches_exact_rational_rounding(self, mode, raws, shift):
        # Independent of the shared body: round the exact rational raw / 2**shift.
        # Products of two Q32.32 words need 127 bits, so object dtype only.
        def exact(q: Fraction) -> int:
            lo = math.floor(q)
            if mode is RoundingMode.FLOOR or q == lo:
                return lo
            if mode is RoundingMode.CEIL:
                return lo + 1
            if mode is RoundingMode.TOWARD_ZERO:
                return lo + (q < 0)
            if q - lo != Fraction(1, 2):
                return lo + (q - lo > Fraction(1, 2))
            return lo + (q > 0) if mode is RoundingMode.NEAREST_AWAY else lo + (lo % 2)

        want = [exact(Fraction(r, 2**shift)) for r in raws]
        got = shift_right_rounded_array(np.array(raws, dtype=object), shift, mode)
        assert [int(v) for v in got] == want

    @pytest.mark.parametrize("mode", DETERMINISTIC_MODES)
    @pytest.mark.parametrize("dtype", [np.int64, object])
    @pytest.mark.parametrize("shift", [1, 2, 5, 31, 32, 33, 62, 63])
    def test_exact_ties_and_negatives(self, mode, dtype, shift):
        half = 1 << (shift - 1)
        quanta = [0, 1, 2, 3, -1, -2, -3]
        raws = [(q << shift) + half for q in quanta] + [(q << shift) - half for q in quanta]
        raws += [(q << shift) + d for q in quanta for d in (-1, 1)]
        raws = [r for r in raws if INT64_MIN <= r <= INT64_MAX]
        self.assert_matches_scalar(raws, shift, mode, dtype)

    @pytest.mark.parametrize("mode", DETERMINISTIC_MODES)
    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_shift_zero_is_identity(self, mode, dtype):
        self.assert_matches_scalar([INT64_MIN, -7, 0, 7, INT64_MAX], 0, mode, dtype)

    @pytest.mark.parametrize("mode", DETERMINISTIC_MODES)
    def test_q32_32_int64_extremes_take_the_exact_path(self, mode):
        # Narrowing by F = 32 near the int64 ends: a (raw + half) >> shift
        # form would overflow int64 here.
        raws = [INT64_MAX, INT64_MAX - (1 << 31), INT64_MIN, INT64_MIN + (1 << 31), -1, 1]
        self.assert_matches_scalar(raws, 32, mode, np.int64)

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            shift_right_rounded_array(np.array([1]), -1)
