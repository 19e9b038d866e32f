"""Fixed-point arithmetic substrate (``QK.F`` two's complement).

Public surface:

- :class:`QFormat` — format descriptor (range, resolution, grid).
- :class:`RoundingMode`, :class:`OverflowMode` — hardware policies.
- :func:`quantize` / :func:`quantize_raw` / :func:`dequantize_raw` —
  vectorized grid snapping.
- :class:`Fx` — scalar fixed-point number (reference semantics).
- :class:`FixedPointDatapath` — bit-accurate MAC/classifier simulator.
"""

from .datapath import DatapathConfig, DatapathTrace, FixedPointDatapath
from .number import Fx
from .overflow import OverflowMode, apply_overflow_raw
from .qformat import QFormat
from .quantize import (
    dequantize_raw,
    quantization_noise,
    quantize,
    quantize_raw,
)
from .rounding import RoundingMode, round_to_int, shift_right_rounded

__all__ = [
    "QFormat",
    "RoundingMode",
    "OverflowMode",
    "Fx",
    "DatapathConfig",
    "DatapathTrace",
    "FixedPointDatapath",
    "quantize",
    "quantize_raw",
    "dequantize_raw",
    "quantization_noise",
    "round_to_int",
    "shift_right_rounded",
    "apply_overflow_raw",
]
