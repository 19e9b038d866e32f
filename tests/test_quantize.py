"""Tests for repro.fixedpoint.quantize."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.conformance.strategies import finite_floats, qformats
from repro.fixedpoint.overflow import OverflowMode
from repro.fixedpoint.quantize import (
    dequantize_raw,
    quantization_noise,
    quantize,
    quantize_raw,
)
from repro.fixedpoint.rounding import RoundingMode

formats = qformats()
finite_floats = finite_floats()


class TestQuantize:
    def test_on_grid_values_unchanged(self, q2_2):
        for value in q2_2.grid():
            assert float(quantize(float(value), q2_2)) == value

    def test_rounds_to_nearest(self, q2_2):
        assert float(quantize(0.3, q2_2)) == 0.25
        assert float(quantize(0.4, q2_2)) == 0.5

    def test_saturates_by_default(self, q2_2):
        assert float(quantize(100.0, q2_2)) == q2_2.max_value
        assert float(quantize(-100.0, q2_2)) == q2_2.min_value

    def test_wrap_overflow(self, q3_0):
        assert float(quantize(4.0, q3_0, overflow=OverflowMode.WRAP)) == -4.0

    def test_non_finite_rejected(self, q2_2):
        with pytest.raises(ValueError):
            quantize(float("nan"), q2_2)
        with pytest.raises(ValueError):
            quantize(np.array([1.0, np.inf]), q2_2)

    def test_array_shape_preserved(self, q2_2):
        x = np.zeros((3, 4))
        assert np.asarray(quantize(x, q2_2)).shape == (3, 4)

    @given(formats, finite_floats)
    @settings(max_examples=200)
    def test_idempotent(self, fmt, value):
        once = float(quantize(value, fmt))
        twice = float(quantize(once, fmt))
        assert once == twice

    @given(formats, finite_floats)
    @settings(max_examples=200)
    def test_result_on_grid(self, fmt, value):
        out = float(quantize(value, fmt))
        assert fmt.contains(out)

    @given(formats, st.floats(min_value=-1.9, max_value=1.9))
    @settings(max_examples=200)
    def test_error_within_half_lsb_inside_range(self, fmt, value):
        if value < fmt.min_value or value > fmt.max_value:
            return
        out = float(quantize(value, fmt))
        assert abs(out - value) <= fmt.resolution / 2 + 1e-15

    @given(formats, finite_floats, finite_floats)
    @settings(max_examples=200)
    def test_monotone(self, fmt, a, b):
        lo, hi = min(a, b), max(a, b)
        assert float(quantize(lo, fmt)) <= float(quantize(hi, fmt))


class TestQuantizeRaw:
    def test_round_trip(self, q2_2):
        raw = quantize_raw(0.75, q2_2)
        assert int(raw) == 3
        assert float(dequantize_raw(raw, q2_2)) == 0.75

    def test_floor_mode(self, q2_2):
        assert int(quantize_raw(0.3, q2_2, rounding=RoundingMode.FLOOR)) == 1  # 0.25

    def test_raise_mode(self, q2_2):
        from repro.errors import OverflowModeError

        with pytest.raises(OverflowModeError):
            quantize_raw(100.0, q2_2, overflow=OverflowMode.RAISE)


class TestQuantizationNoise:
    def test_zero_for_grid_values(self, q2_2):
        noise = quantization_noise(q2_2.grid(), q2_2)
        assert np.all(noise == 0.0)

    def test_sign_of_noise(self, q2_2):
        assert float(quantization_noise(0.3, q2_2)) == pytest.approx(-0.05)
