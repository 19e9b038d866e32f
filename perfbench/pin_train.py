"""Pin the optimum of every ``train_optimal`` instance by enumeration.

Usage: ``python3 perfbench/pin_train.py`` from the repository root.  Runs
the repository's exhaustive grid search (``brute_force_minimize``) on the
exact objective ``train_lda_fp`` optimizes — quantized data, PQN-floored
class statistics, Eq. 18/20 feasibility — and rewrites
``perfbench/pinned_train.json``.  Takes several minutes; the benchmark only
reads the result.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from instances import INSTANCES, PINNED_PATH, build_dataset, instance_key  # noqa: E402


def enumerate_optimum(spec: dict) -> float:
    from repro.core.ldafp import LdaFpConfig, _adjust_stats
    from repro.core.problem import LdaFpProblem
    from repro.fixedpoint.qformat import QFormat
    from repro.fixedpoint.quantize import quantize
    from repro.optim.bruteforce import brute_force_minimize
    from repro.stats.scatter import estimate_two_class_stats

    fmt = QFormat(spec["int_bits"], spec["frac_bits"])
    config = LdaFpConfig()
    dataset = build_dataset(spec)
    quantized = dataset.map_features(
        lambda x: np.asarray(quantize(x, fmt, rounding=config.rounding))
    )
    stats = _adjust_stats(
        estimate_two_class_stats(*quantized.class_arrays()), fmt, config
    )
    problem = LdaFpProblem(stats=stats, fmt=fmt, rho=config.rho, beta=config.beta)
    result = brute_force_minimize(
        [fmt.grid()] * problem.num_features,
        cost=problem.cost,
        feasible=lambda w: problem.constraint_violation(w) <= 1e-9,
    )
    return float(result.cost)


def main() -> int:
    optimum = {}
    for spec in INSTANCES:
        started = time.perf_counter()
        optimum[instance_key(spec)] = enumerate_optimum(spec)
        print(
            f"{instance_key(spec)}: {optimum[instance_key(spec)]!r} "
            f"({time.perf_counter() - started:.1f} s)",
            flush=True,
        )
    with open(PINNED_PATH, "w") as handle:
        json.dump({"method": "brute_force_minimize", "optimum": optimum}, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
