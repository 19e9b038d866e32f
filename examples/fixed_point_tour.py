#!/usr/bin/env python3
"""A tour of the fixed-point substrate (the paper's Section 3 mechanics).

Demonstrates, with printed bit patterns:

- the ``QK.F`` format (Figure 3): range, resolution, two's complement,
- rounding modes and their biases,
- the wrap-vs-saturate overflow policies,
- the paper's key identity: intermediate overflow is harmless under
  wrapping when the final sum is in range (``3 + 3 - 4`` in ``Q3.0``),
- the same identity through the bit-accurate MAC datapath simulator.

Run:  python examples/fixed_point_tour.py
"""

from __future__ import annotations

from repro.fixedpoint import (
    DatapathConfig,
    FixedPointDatapath,
    Fx,
    OverflowMode,
    QFormat,
    RoundingMode,
    quantize,
)


def section(title: str) -> None:
    print(f"\n{title}\n{'-' * len(title)}")


def main() -> None:
    section("The QK.F format (paper Figure 3)")
    for spec in ("Q3.0", "Q2.4", "Q4.4"):
        fmt = QFormat.from_string(spec)
        print(f"  {spec}: range [{fmt.min_value:+.4f}, {fmt.max_value:+.4f}], "
              f"LSB = {fmt.resolution}, {fmt.num_values} values")

    section("Two's-complement bit patterns")
    q = QFormat(3, 2)
    for value in (1.75, -0.25, -4.0, 0.25):
        fx = Fx(value, q)
        print(f"  {value:+6.2f} in {q} -> {fx.bits} (raw {fx.raw:+d})")

    section("Rounding modes on 0.3 in Q2.4 (LSB = 0.0625)")
    fmt = QFormat(2, 4)
    for mode in (RoundingMode.NEAREST_AWAY, RoundingMode.NEAREST_EVEN,
                 RoundingMode.FLOOR, RoundingMode.CEIL, RoundingMode.TOWARD_ZERO):
        print(f"  {mode.value:13s}: {float(quantize(0.3, fmt, rounding=mode)):+.4f}")

    section("Overflow policies on 2.5 in Q2.4 (max = 1.9375)")
    print(f"  wrap     : {float(quantize(2.5, fmt, overflow=OverflowMode.WRAP)):+.4f}")
    print(f"  saturate : {float(quantize(2.5, fmt, overflow=OverflowMode.SATURATE)):+.4f}")

    section("The paper's wrap identity: 3 + 3 - 4 in Q3.0")
    q30 = QFormat(3, 0)
    a, b, c = Fx(3, q30), Fx(3, q30), Fx.from_raw(-4, q30)
    step1 = a + b
    print(f"  011 + 011 = {step1.bits}  ({step1.value:+.0f})  <- overflowed!")
    final = step1 + c
    print(f"  {step1.bits} + 100 = {final.bits}  ({final.value:+.0f})  "
          "<- exact anyway (wrapping)")

    section("The same identity through the MAC datapath simulator")
    dp = FixedPointDatapath([1.0, 1.0, 1.0], 0.0, DatapathConfig(fmt=q30))
    trace = dp.project_traced([3.0, 3.0, -4.0])
    print(f"  accumulator trace: {trace.accumulator_raws} "
          f"(overflow flags {trace.accumulator_overflowed})")
    print(f"  final result     : {q30.to_real(trace.result_raw):+.0f}")


if __name__ == "__main__":
    main()
