"""Vectorized quantization of real values to a ``QK.F`` grid.

This is the workhorse used throughout the library: training data are
quantized before learning (paper Section 3, "the feature vector x should be
rounded to its fixed-point representation, before the training data is used
to learn the classifier"), and candidate weight vectors are snapped to the
grid by the branch-and-bound upper-bound heuristic.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..errors import InputValidationError

from .overflow import OverflowMode, apply_overflow_raw
from .qformat import QFormat
from .rounding import ROUNDERS, RoundingMode, round_to_int

__all__ = [
    "quantize",
    "quantize_raw",
    "dequantize_raw",
    "quantization_noise",
]

ArrayLike = Union[float, np.ndarray]


def quantize_raw(
    value: ArrayLike,
    fmt: QFormat,
    rounding: "RoundingMode | str" = RoundingMode.NEAREST_AWAY,
    overflow: "OverflowMode | str" = OverflowMode.SATURATE,
    rng: "np.random.Generator | None" = None,
) -> np.ndarray:
    """Quantize real value(s) to raw integer words of ``fmt``.

    Rounding happens first (in quanta), then the overflow policy is applied
    to the rounded word.  Non-finite inputs raise ``ValueError`` — silent
    NaN propagation through int casts is a classic source of garbage runs.
    """
    arr = np.asarray(value, dtype=np.float64)
    if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise InputValidationError("cannot quantize non-finite values")
    scaled = arr * (1 << fmt.fraction_bits)
    raw = round_to_int(scaled, mode=rounding, rng=rng)
    return np.asarray(apply_overflow_raw(raw, fmt, mode=overflow))


def dequantize_raw(raw: "int | np.ndarray", fmt: QFormat) -> np.ndarray:
    """Convert raw word(s) back to real value(s)."""
    return np.asarray(raw, dtype=np.float64) * fmt.resolution


# Raw magnitudes below 2**52 are exactly representable integral floats, so
# rounding, saturation, and the resolution rescale can all stay in the float
# domain with bit-identical results to the int64 round-trip.
_FLOAT_EXACT_WORD_BITS = 52


def quantize(
    value: ArrayLike,
    fmt: QFormat,
    rounding: "RoundingMode | str" = RoundingMode.NEAREST_AWAY,
    overflow: "OverflowMode | str" = OverflowMode.SATURATE,
    rng: "np.random.Generator | None" = None,
) -> np.ndarray:
    """Quantize real value(s) onto the representable grid of ``fmt``.

    Returns float64 value(s) that are exactly representable in ``fmt``
    (so ``quantize(quantize(x)) == quantize(x)`` — idempotence is covered by
    a hypothesis property test).
    """
    mode = RoundingMode.coerce(rounding)
    omode = OverflowMode.coerce(overflow)
    if (
        omode is OverflowMode.SATURATE
        and mode is not RoundingMode.STOCHASTIC
        and fmt.word_length <= _FLOAT_EXACT_WORD_BITS
    ):
        # Fast path for the library default (saturating, deterministic
        # rounding, narrow format): every training sample crosses this at
        # every sweep point, so we round and clamp in the float domain and
        # skip the int64 round-trip entirely.  Bit-identical to the slow
        # path because raw words of narrow formats are exact in float64.
        arr = np.asarray(value, dtype=np.float64)
        out = ROUNDERS[mode](arr * float(1 << fmt.fraction_bits))
        if out.size:
            lo, hi = out.min(), out.max()
            if not (np.isfinite(lo) and np.isfinite(hi)):
                if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
                    raise InputValidationError("cannot quantize non-finite values")
                raise InputValidationError(
                    "cannot convert non-finite values to raw words"
                )
        out = np.asarray(out)
        np.clip(out, float(fmt.min_raw), float(fmt.max_raw), out=out)
        out *= fmt.resolution
        out += 0.0  # normalize -0.0 to +0.0, matching the int round-trip
    else:
        raw = quantize_raw(value, fmt, rounding=rounding, overflow=overflow, rng=rng)
        out = dequantize_raw(raw, fmt)
    if np.isscalar(value) or np.asarray(value).ndim == 0:
        return np.float64(out)
    return out


def quantization_noise(value: ArrayLike, fmt: QFormat, **kwargs) -> np.ndarray:
    """The signed error ``quantize(x) - x`` introduced by quantization."""
    return np.asarray(quantize(value, fmt, **kwargs)) - np.asarray(
        value, dtype=np.float64
    )
