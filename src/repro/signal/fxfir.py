"""Fixed-point FIR filtering — the on-chip front end at a given word length.

The paper's classifier is only the last stage of an on-chip pipeline; the
filters feeding it are fixed-point too (word-length optimization for DSP is
exactly the literature the paper cites, [10]-[12]).  This module runs an
FIR filter with quantized coefficients and quantized data through the same
exact integer arithmetic as the classifier datapath: full-precision
products narrowed back to ``QK.F`` with the configured rounding, and a
**wide accumulator** (the standard FIR datapath choice — unlike the
classifier's single-format accumulator, FIR accumulators conventionally
carry guard bits, and we model ``guard_bits`` explicitly).  The filter
is written once, as :meth:`FixedPointFir.filter_raws`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import DataError
from ..fixedpoint.overflow import OverflowMode, apply_overflow_array
from ..fixedpoint.qformat import QFormat
from ..fixedpoint.quantize import dequantize_raw, quantize_raw
from ..fixedpoint.rounding import RoundingMode, shift_right_rounded_array

__all__ = ["FixedPointFir", "fir_int64_path_available"]

_INT64_MAX = int(np.iinfo(np.int64).max)

#: Samples per stepper call in :meth:`FixedPointFir.apply`, so peak memory
#: is O(block * taps) for any signal length.
_APPLY_BLOCK = 4096


def fir_int64_path_available(fmt: QFormat, num_taps: int) -> bool:
    """True when int64 arithmetic is exact for a ``num_taps``-tap FIR in ``fmt``.

    No product of two ``fmt`` words exceeds ``min_raw**2`` and no narrowed
    product ``min_raw**2 >> F``; :meth:`FixedPointFir.filter_raws` sums all
    ``num_taps`` of them before its one wrap, so both bounds must fit.  The
    guard bits do not enter: the accumulator wrap is exact on int64.
    """
    product = fmt.min_raw * fmt.min_raw
    return product <= _INT64_MAX and num_taps * (product >> fmt.fraction_bits) <= _INT64_MAX


@dataclass(frozen=True)
class FixedPointFir:
    """An FIR filter evaluated in exact fixed-point arithmetic.

    Parameters
    ----------
    taps:
        Real-valued coefficient vector (quantized to ``fmt`` internally).
    fmt:
        The ``QK.F`` format of coefficients, inputs, and outputs.
    guard_bits:
        Extra accumulator integer bits; the accumulator wraps only if the
        running sum exceeds ``2^(K-1+guard_bits)`` — with
        ``guard_bits >= ceil(log2(num_taps))`` it never wraps.
    rounding:
        Rounding used to narrow products and the final accumulator value.
    """

    taps: np.ndarray
    fmt: QFormat
    guard_bits: int = 8
    rounding: RoundingMode = RoundingMode.NEAREST_AWAY

    def __post_init__(self) -> None:
        taps = np.asarray(self.taps, dtype=np.float64)
        if taps.ndim != 1 or taps.size == 0:
            raise DataError(f"taps must be a non-empty vector, got {taps.shape}")
        if self.guard_bits < 0:
            raise DataError(f"guard_bits must be >= 0, got {self.guard_bits}")
        object.__setattr__(self, "taps", taps)
        object.__setattr__(
            self,
            "_tap_raws",
            quantize_raw(
                taps, self.fmt, rounding=self.rounding, overflow=OverflowMode.SATURATE
            ),
        )
        dtype = np.int64 if fir_int64_path_available(self.fmt, taps.size) else object
        object.__setattr__(self, "_reversed_taps", self._tap_raws[::-1].astype(dtype))

    @property
    def quantized_taps(self) -> np.ndarray:
        """The coefficient values actually implemented."""
        return dequantize_raw(self._tap_raws, self.fmt)

    @property
    def tap_raws(self) -> np.ndarray:
        """The quantized coefficients as raw words (int64, read-only view).

        Exposed for the static signal-chain certifier
        (:mod:`repro.check.signal_certifier`), which propagates exact
        intervals over these words.
        """
        return self._tap_raws

    @property
    def accumulator_format(self) -> QFormat:
        return QFormat(
            self.fmt.integer_bits + self.guard_bits, self.fmt.fraction_bits
        )

    def coefficient_error(self) -> float:
        """Max absolute coefficient quantization error."""
        return float(np.max(np.abs(self.quantized_taps - self.taps)))

    def filter_raws(self, delay_line: np.ndarray) -> np.ndarray:
        """Output words for every full ``num_taps`` window of a raw delay line.

        Narrowed products are summed and wrapped once into
        :attr:`accumulator_format` (wrapping is modular, so this equals an
        adder chain wrapping after every addition), then saturated.  Runs in
        int64 for an int64 line when :func:`fir_int64_path_available` holds.
        """
        taps = self._reversed_taps
        if delay_line.size < taps.size:
            return np.zeros(0, dtype=np.int64)
        products = sliding_window_view(delay_line, taps.size) * taps
        narrowed = shift_right_rounded_array(products, self.fmt.fraction_bits, self.rounding)
        acc = apply_overflow_array(
            narrowed.sum(axis=1), self.accumulator_format, OverflowMode.WRAP
        )
        return apply_overflow_array(acc, self.fmt, OverflowMode.SATURATE).astype(np.int64)

    def apply(self, signal: np.ndarray) -> np.ndarray:
        """Filter a 1-D signal; returns real values on the ``fmt`` grid.

        The input is quantized to ``fmt`` first (saturating), products are
        narrowed to ``fmt``'s fraction with the configured rounding, the
        accumulation runs in the guarded accumulator format with wrapping,
        and the final value is saturated back into ``fmt``: the :meth:`stream`
        stepper fed fixed-size blocks.
        """
        x = np.asarray(signal, dtype=np.float64)
        if x.ndim != 1:
            raise DataError(f"signal must be 1-D, got shape {x.shape}")
        stepper = self.stream()
        blocks = [
            stepper.process(x[start : start + _APPLY_BLOCK])
            for start in range(0, x.size, _APPLY_BLOCK)
        ]
        return np.concatenate(blocks or [np.zeros(0)])

    def reference_apply(self, signal: np.ndarray) -> np.ndarray:
        """Float filtering with the quantized coefficients (no datapath
        effects) — the baseline the fixed-point error is measured against."""
        x = np.asarray(signal, dtype=np.float64)
        return np.convolve(x, self.quantized_taps)[: x.size]

    def stream(self):
        """A stateful stepper over this filter, bit-exact with :meth:`apply`.

        See :class:`repro.signal.stream.FixedPointFirStream`.
        """
        from .stream import FixedPointFirStream

        return FixedPointFirStream(self)
