"""Fixed-point arithmetic substrate (``QK.F`` two's complement).

Public surface:

- :class:`QFormat` — format descriptor (range, resolution, grid).
- :class:`RoundingMode`, :class:`OverflowMode` — hardware policies.
- :func:`quantize` / :func:`quantize_raw` / :func:`dequantize_raw` —
  vectorized grid snapping.
- :class:`Fx` — scalar fixed-point number (reference semantics).
- :class:`FixedPointDatapath` — bit-accurate MAC/classifier simulator.
- :func:`analyze_quantization`, :func:`greedy_wordlength_allocation` —
  analysis and word-length-allocation extensions.
"""

from .analysis import (
    QuantizationReport,
    analyze_quantization,
    required_integer_bits,
    theoretical_sqnr_db,
)
from .allocation import (
    AllocationResult,
    choose_uniform_format,
    greedy_wordlength_allocation,
)
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
    "QuantizationReport",
    "AllocationResult",
    "quantize",
    "quantize_raw",
    "dequantize_raw",
    "quantization_noise",
    "round_to_int",
    "shift_right_rounded",
    "apply_overflow_raw",
    "analyze_quantization",
    "required_integer_bits",
    "theoretical_sqnr_db",
    "choose_uniform_format",
    "greedy_wordlength_allocation",
]
