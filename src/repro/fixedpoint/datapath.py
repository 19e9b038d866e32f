"""Bit-accurate simulation of the classifier's fixed-point datapath.

The on-chip classifier computes ``y = w' x - threshold`` and compares the
result against zero (paper Eq. 12).  All operands live in one ``QK.F``
format (paper Section 3); hardware performs:

1. ``M`` multiplications ``w_m * x_m``.  Each full-precision product has
   ``2K`` integer and ``2F`` fractional bits; the datapath rounds it back to
   ``QK.F`` (drop ``F`` low bits with the configured rounding) and wraps.
2. A chain of additions in ``QK.F`` with two's-complement **wrapping**.
   Intermediate sums may overflow freely — the paper's Section 3 example
   ``3 + 3 - 4`` in ``Q3.0`` wraps to ``-2`` after the first add yet the
   final result ``2`` is exact.  This simulator reproduces that behaviour
   exactly and is property-tested against exact integer arithmetic.
3. A final subtraction of the threshold and a sign comparison.

The simulator operates on raw integer words throughout, so results are
bit-exact regardless of word length (Python ints are unbounded).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from ..errors import InputValidationError
from .overflow import OverflowMode, apply_overflow_array, apply_overflow_raw
from .qformat import QFormat
from .quantize import dequantize_raw, quantize_raw
from .rounding import RoundingMode, shift_right_rounded, shift_right_rounded_array

__all__ = [
    "DatapathConfig",
    "DatapathTrace",
    "FixedPointDatapath",
    "int64_path_available",
    "project_raws_batch",
]

# numpy int64 carries 63 magnitude bits plus sign.
_INT64_MAGNITUDE_BITS = 63


def int64_path_available(fmt: QFormat, num_features: int) -> bool:
    """True when int64 arithmetic is exact for ``fmt`` and ``M`` features.

    The widest intermediate is a full-precision product (``2 * (K + F)``
    bits); accumulation contributes at most ``ceil(log2(M))`` carry bits
    before each wrap.  The int64 path is safe iff the total fits in int64.
    """
    carry_bits = math.ceil(math.log2(max(int(num_features), 2)))
    return 2 * fmt.word_length + carry_bits <= _INT64_MAGNITUDE_BITS


@dataclass(frozen=True)
class DatapathConfig:
    """Static configuration of the MAC datapath.

    Parameters
    ----------
    fmt:
        The single ``QK.F`` format used by every operand and register.
    rounding:
        Rounding applied when narrowing each product back to ``QK.F``.
    overflow:
        Overflow policy of the adders/registers; ``WRAP`` matches the
        paper's hardware assumption, ``SATURATE`` is provided for ablations.
    product_overflow:
        Overflow policy applied to each narrowed product.  Separate from
        ``overflow`` because the paper's per-feature constraints (Eq. 18)
        are specifically about keeping products in range — the ablation
        benchmarks disable those constraints and observe wrap damage here.
    """

    fmt: QFormat
    rounding: RoundingMode = RoundingMode.NEAREST_AWAY
    overflow: OverflowMode = OverflowMode.WRAP
    product_overflow: OverflowMode = OverflowMode.WRAP


@dataclass
class DatapathTrace:
    """Step-by-step record of one dot-product evaluation.

    Attributes
    ----------
    product_raws:
        Raw words of each narrowed product ``w_m * x_m``.
    accumulator_raws:
        Raw accumulator word after each addition (length ``M``).
    result_raw:
        Final raw word of ``w' x - threshold``.
    product_overflowed / accumulator_overflowed:
        Flags marking where the exact value fell outside the format before
        the overflow policy was applied; used to diagnose overflow damage.
    """

    product_raws: list = field(default_factory=list)
    accumulator_raws: list = field(default_factory=list)
    result_raw: int = 0
    product_overflowed: list = field(default_factory=list)
    accumulator_overflowed: list = field(default_factory=list)

    @property
    def any_product_overflow(self) -> bool:
        return any(self.product_overflowed)

    @property
    def any_accumulator_overflow(self) -> bool:
        return any(self.accumulator_overflowed)


class FixedPointDatapath:
    """Simulates ``sign(w' x - threshold)`` exactly as the RTL would compute it.

    The weight vector and threshold are fixed at construction (they are
    constants in the silicon); feature vectors stream through ``project`` /
    ``classify``.

    Parameters
    ----------
    weights:
        Real-valued weights; quantized to ``config.fmt`` on construction
        (values already on the grid pass through unchanged).
    threshold:
        Real-valued decision threshold ``w' (mu_A + mu_B) / 2``; quantized
        likewise.
    config:
        Datapath configuration.
    """

    def __init__(
        self,
        weights: Sequence[float],
        threshold: float,
        config: DatapathConfig,
    ) -> None:
        self.config = config
        fmt = config.fmt
        self.weight_raws = quantize_raw(
            np.asarray(weights, dtype=np.float64),
            fmt,
            rounding=config.rounding,
            overflow=OverflowMode.SATURATE,
        )
        self.threshold_raw = int(
            quantize_raw(
                float(threshold),
                fmt,
                rounding=config.rounding,
                overflow=OverflowMode.SATURATE,
            )
        )

    # ------------------------------------------------------------------ #
    # Scalar path with tracing (reference implementation)
    # ------------------------------------------------------------------ #
    def project_traced(self, features: Sequence[float]) -> DatapathTrace:
        """Compute ``w' x - threshold`` for one sample, recording every step."""
        fmt = self.config.fmt
        x_raws = quantize_raw(
            np.asarray(features, dtype=np.float64),
            fmt,
            rounding=self.config.rounding,
            overflow=OverflowMode.SATURATE,
        )
        if x_raws.shape != self.weight_raws.shape:
            raise InputValidationError(
                f"feature length {x_raws.shape} does not match weight length "
                f"{self.weight_raws.shape}"
            )
        trace = DatapathTrace()
        acc = 0
        for w_raw, x_raw in zip(self.weight_raws.tolist(), x_raws.tolist()):
            # Full product has 2F fractional bits; narrow by F with rounding.
            full = int(w_raw) * int(x_raw)
            narrowed = shift_right_rounded(full, fmt.fraction_bits, self.config.rounding)
            prod_overflow = narrowed < fmt.min_raw or narrowed > fmt.max_raw
            prod = int(
                apply_overflow_raw(narrowed, fmt, mode=self.config.product_overflow)
            )
            trace.product_raws.append(prod)
            trace.product_overflowed.append(prod_overflow)

            exact_sum = acc + prod
            acc_overflow = exact_sum < fmt.min_raw or exact_sum > fmt.max_raw
            acc = int(apply_overflow_raw(exact_sum, fmt, mode=self.config.overflow))
            trace.accumulator_raws.append(acc)
            trace.accumulator_overflowed.append(acc_overflow)

        final = acc - self.threshold_raw
        trace.result_raw = int(
            apply_overflow_raw(final, fmt, mode=self.config.overflow)
        )
        return trace

    def project(self, features: Sequence[float]) -> float:
        """Real value of ``w' x - threshold`` as computed by the hardware."""
        return self.config.fmt.to_real(self.project_traced(features).result_raw)

    def classify(self, features: Sequence[float]) -> int:
        """Decision per Eq. 12: 1 (class A) if ``w'x - threshold >= 0`` else 0."""
        return 1 if self.project_traced(features).result_raw >= 0 else 0

    # ------------------------------------------------------------------ #
    # Vectorized path (used by evaluation loops; tested against the traced path)
    # ------------------------------------------------------------------ #
    def project_batch(self, features: np.ndarray) -> np.ndarray:
        """Vectorized ``w' x - threshold`` over rows of ``features``.

        Bit-exact with :meth:`project` (covered by a property test); runs
        :func:`project_raws_batch` in int64 when
        :func:`int64_path_available` holds and on Python ints otherwise.
        """
        fmt = self.config.fmt
        x = np.asarray(features, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        x_raws = quantize_raw(
            x, fmt, rounding=self.config.rounding, overflow=OverflowMode.SATURATE
        )
        w_raws = self.weight_raws
        if not int64_path_available(fmt, w_raws.size):
            x_raws, w_raws = x_raws.astype(object), w_raws.astype(object)
        result_raws = project_raws_batch(x_raws, w_raws, self.threshold_raw, self.config)[0]
        return dequantize_raw(result_raws.astype(np.int64), fmt)

    def classify_batch(self, features: np.ndarray) -> np.ndarray:
        """Vectorized decisions (1 = class A, 0 = class B)."""
        return (self.project_batch(features) >= 0.0).astype(np.int64)


def project_raws_batch(
    x_raws: np.ndarray, weight_raws: np.ndarray, threshold_raw: int, config: DatapathConfig
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The batch datapath over rows of in-range raw feature words.

    Returns ``(result_raws, product_overflowed, accumulator_overflowed)`` as
    in :class:`DatapathTrace`, computed in the operands' dtype (int64 only
    where :func:`int64_path_available` holds).
    """
    fmt = config.fmt
    full = x_raws * weight_raws[None, :]
    narrowed = shift_right_rounded_array(full, fmt.fraction_bits, config.rounding)
    product_overflowed = (narrowed < fmt.min_raw) | (narrowed > fmt.max_raw)
    prods = apply_overflow_array(narrowed, fmt, config.product_overflow)

    # The overflow policy applies after every addition, as the adder chain does.
    n, m = prods.shape
    acc = np.zeros(n, dtype=prods.dtype)
    accumulator_overflowed = np.empty((n, m), dtype=bool)
    for col in range(m):
        exact_sum = acc + prods[:, col]
        accumulator_overflowed[:, col] = (exact_sum < fmt.min_raw) | (exact_sum > fmt.max_raw)
        acc = apply_overflow_array(exact_sum, fmt, config.overflow)
    result_raws = apply_overflow_array(acc - threshold_raw, fmt, config.overflow)
    return result_raws, product_overflowed, accumulator_overflowed
