"""Overflow handling policies for fixed-point quantization and arithmetic.

Two's-complement hardware either *wraps* (the cheap default: high bits are
simply discarded, so values move around the ring ``[-2**(K-1), 2**(K-1))``)
or *saturates* (extra comparator logic clamps to the end of the range).
The paper's key observation in Section 3 depends on wrapping: intermediate
sums of a dot product may overflow freely as long as the final result is in
range.  ``RAISE`` is a debugging mode used by the tests.
"""

from __future__ import annotations

import enum
from typing import Union

import numpy as np

from ..errors import OverflowModeError
from .qformat import QFormat

__all__ = ["OverflowMode", "apply_overflow_raw", "apply_overflow_array"]

RawLike = Union[int, np.ndarray]


class OverflowMode(enum.Enum):
    """What to do with a raw word outside ``[min_raw, max_raw]``."""

    WRAP = "wrap"
    SATURATE = "saturate"
    RAISE = "raise"

    @classmethod
    def coerce(cls, mode: "OverflowMode | str") -> "OverflowMode":
        if isinstance(mode, cls):
            return mode
        return cls(str(mode))


def apply_overflow_raw(
    raw: RawLike, fmt: QFormat, mode: "OverflowMode | str" = OverflowMode.WRAP
) -> RawLike:
    """Bring raw integer word(s) into the representable range of ``fmt``.

    Parameters
    ----------
    raw:
        Integer word(s); may lie far outside the format's raw range (e.g.
        an exact wide accumulator value).
    fmt:
        Target format.
    mode:
        ``WRAP`` reduces modulo ``2**(K+F)`` (two's-complement wrap-around),
        ``SATURATE`` clamps to ``[min_raw, max_raw]``, ``RAISE`` raises
        :class:`~repro.errors.OverflowModeError` on any out-of-range word.
    """
    mode = OverflowMode.coerce(mode)
    if isinstance(raw, np.ndarray):
        return apply_overflow_array(raw, fmt, mode).astype(np.int64)

    value = int(raw)
    if mode is OverflowMode.WRAP:
        return fmt.wrap_raw(value)
    if mode is OverflowMode.SATURATE:
        return max(fmt.min_raw, min(fmt.max_raw, value))
    if value < fmt.min_raw or value > fmt.max_raw:
        raise OverflowModeError(fmt.to_real(value), fmt.min_value, fmt.max_value)
    return value


def apply_overflow_array(
    raws: np.ndarray, fmt: QFormat, mode: "OverflowMode | str" = OverflowMode.WRAP
) -> np.ndarray:
    """:func:`apply_overflow_raw` over an int64 or object (Python int) array.

    The result keeps the input dtype, so wide arithmetic stays exact.
    ``WRAP`` re-signs the low ``K+F`` bits at :attr:`QFormat.sign_bit`.
    """
    mode = OverflowMode.coerce(mode)
    raws = np.asarray(raws)
    if raws.ndim == 0:
        # ufuncs return scalars on 0-d input, which a huge Python int breaks.
        return apply_overflow_array(raws.reshape(1), fmt, mode).reshape(())
    if mode is OverflowMode.WRAP:
        if raws.dtype != object and fmt.word_length >= 64:
            return raws  # every int64 already is a 64-bit word
        sign = fmt.sign_bit
        return ((raws & fmt.wrap_mask) ^ sign) - sign
    if mode is OverflowMode.SATURATE:
        return np.minimum(np.maximum(raws, fmt.min_raw), fmt.max_raw)
    bad = (raws < fmt.min_raw) | (raws > fmt.max_raw)
    if np.any(bad):
        offender = int(raws[bad].flat[0])
        raise OverflowModeError(fmt.to_real(offender), fmt.min_value, fmt.max_value)
    return raws
