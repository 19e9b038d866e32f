#!/usr/bin/env python3
"""Word-length exploration: error/power Pareto front + range/precision analysis.

Two studies the paper motivates but leaves as future work:

1. **Uniform word-length Pareto sweep** — train LDA-FP at every word length
   and print the (error, power) frontier a designer would choose from.
2. **Range and precision analysis** — size the integer bits of the float
   LDA datapath from statistical ranges, then predict the classification
   error at each fraction-bit count from the analytic precision model.

Run:  python examples/wordlength_explorer.py
"""

from __future__ import annotations

from repro import LdaFpConfig, PipelineConfig, make_synthetic_dataset
from repro.core import fit_lda
from repro.data.scaling import FeatureScaler
from repro.wordlength import (
    minimum_wordlength,
    pareto_front,
    precision_sweep,
    statistical_ranges,
    wordlength_sweep,
)


def pareto_sweep() -> None:
    print("Uniform word-length sweep (LDA-FP), error vs normalized power")
    train = make_synthetic_dataset(1500, seed=0)
    test = make_synthetic_dataset(4000, seed=1)
    points = wordlength_sweep(
        train,
        test,
        word_lengths=(4, 6, 8, 10, 12, 14, 16),
        pipeline_config=PipelineConfig(
            method="lda-fp", ldafp=LdaFpConfig(max_nodes=100, time_limit=10)
        ),
    )
    print("  WL |  error  | power (norm.) ")
    print("-----+---------+---------------")
    for p in points:
        print(f"  {p.word_length:2d} | {100 * p.test_error:6.2f}% | {p.power:8.0f}")
    front = pareto_front(points)
    print("Pareto-optimal word lengths:", [p.word_length for p in front])
    best = minimum_wordlength(points, target_error=0.30)
    if best is not None:
        print(f"smallest word length with error <= 30%: {best.word_length} bits")


def range_and_precision_analysis() -> None:
    print("\nRange + precision analysis of the float LDA datapath")
    train = make_synthetic_dataset(1500, seed=5)
    scaler = FeatureScaler(limit=0.9)
    train_s = train.map_features(scaler.fit(train.features).transform)
    from repro.stats import estimate_two_class_stats

    stats = estimate_two_class_stats(train_s.class_a, train_s.class_b)
    model = fit_lda(train_s, shrinkage=0.0)

    ranges = statistical_ranges(stats, model.weights, model.threshold, rho=0.9999)
    bits = ranges.integer_bits_needed()
    print(f"  integer bits needed (rho=0.9999): {bits}")

    points = precision_sweep(
        stats, model.weights, model.threshold,
        integer_bits=bits["decision"], fraction_range=(4, 14),
    )
    print("   F | predicted error | quantization-noise var")
    for p in points[::2]:
        print(f"  {p.fraction_bits:2d} | {100 * p.predicted_error:13.2f}% | "
              f"{p.noise_variance:.3e}")


def main() -> None:
    pareto_sweep()
    range_and_precision_analysis()


if __name__ == "__main__":
    main()
