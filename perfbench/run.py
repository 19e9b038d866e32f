"""The repository benchmark: one command per workload, every output checked.

Usage, from the repository root::

    python3 perfbench/run.py --workload predict_small --seed 1 --seconds 10 --trace 0

Workloads are listed in ``BENCHMARK.json`` and described in
``perfbench/workloads.py``.  With ``--trace 0`` the last stdout line is a
JSON object with the end-to-end metrics; with ``--trace 1`` the run is
split into an untraced and a traced half and the last line carries the
per-layer metrics, computed from spans recorded around each layer's public
functions.  The lines before it are a human-readable report: host
fingerprint, why the workload exists, the named end-to-end metrics with
their sample counts, failures, and in traced runs the layer breakdown with
its accounting check and the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

# Before numpy loads: one BLAS thread per process (see ``pinning.py``).
from pinning import CPUS, SINGLE_THREADED, pin  # noqa: E402

os.environ.update(SINGLE_THREADED)

from loadgen import (  # noqa: E402
    SERVING_TOLERANCE,
    TRAINING_TOLERANCE,
    run_serving,
    run_training,
)
from spans import check_accounting  # noqa: E402
from speed import factor  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Layers that stand for time no span claims, left out when naming the largest.
UNATTRIBUTED = ("server.other", "transport", "train.other")


def fingerprint(backends: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        git_sha = probe.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "repro")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {
        "cpu_model": cpu,
        "nproc": len(CPUS),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "engine_backends": backends,
    }


def serving_breakdown(result: dict) -> dict:
    """Mean per-op layer self times of the primary op.

    The accounting wall is the server's own op time (first decode to last
    encode, read off the op's root span); what the client saw beyond it is
    reported as ``transport``: loopback, frame reads and the client itself.
    """
    kind = {"predict": "WireRequest", "chunk": "StreamChunk"}[result["primary"]]
    server = result["layers"]["ops"][kind]
    client_ms = result["traced"][result["primary"]]["mean_ms"]
    layers = dict(server["layers_ms"])
    accounting = check_accounting(layers, server["mean_ms"], "server.other", SERVING_TOLERANCE)
    layers["transport"] = client_ms - server["mean_ms"]
    return {
        "server_ops": server["count"],
        "layers_ms": layers,
        "client_ms": client_ms,
        "accounting": accounting,
        "unattributed_frac": (layers["server.other"] + layers["transport"]) / client_ms,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to benchmark: {os.path.join(ROOT, 'src', 'repro')} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    pin(0)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)

    if workload.train:
        result = run_training(ROOT, args.seconds, trace)
        attempted, errors = result["attempted"], result["errors"]
        backends = {}
    else:
        result = run_serving(ROOT, workload, args.seed, args.seconds, trace)
        attempted, errors = len(result["ops"]), result["errors"]
        backends = result["backends"]
    failed = len(errors)

    print(f"workload {workload.name}: {workload.why}")
    print(f"  loads {', '.join(workload.loads)}; bypasses {', '.join(workload.bypasses)}")
    print("host " + json.dumps(fingerprint(backends)))
    print(f"operations attempted {attempted}, failed {failed}, fail_frac {failed / max(attempted, 1):.6f}")
    for message in errors[:20]:
        print(f"  FAILED {message}")
    if len(errors) > 20:
        print(f"  ... and {len(errors) - 20} more failures")
    e2e = result["end_to_end"]
    raw = ", ".join(f"{v:.4f}" for v in result["setups_s"]["raw"])
    print(f"setup_s {e2e['setup_s']:.4f} s scaled (median of {len(result['setups_s']['raw'])} launches; unscaled {raw})")
    print(f"rss_mb {e2e['rss_mb']:.1f} MB (peak, process doing the work)")
    _print_named(workload, result)

    if trace:
        # Layers this workload bypasses did no work: they report zero.
        metrics = {m["name"]: 0.0 for m in spec["per_layer"]}
        metrics.update(result["layers"]["per_layer"])
        if workload.train:
            passes = result["passes"]
            traced_s = passes[-1]["seconds"]
            layers_ms = dict(result["layers"]["layers_ms"])
            accounting = check_accounting(
                {k: v / 1e3 for k, v in layers_ms.items()}, traced_s, "train.other", TRAINING_TOLERANCE
            )
            scaled = [p["seconds"] * factor(p["calibrations"]) for p in passes]
            overhead = scaled[-1] / statistics.mean(scaled[:-1]) - 1.0
            unattributed = accounting.unattributed_frac
            wall_label = f"traced pass {traced_s * 1e3:.1f} ms"
        else:
            untraced = result["measure"][result["primary"]]["scaled_samples_per_s"]
            traced_rate = result["traced"][result["primary"]]["scaled_samples_per_s"]
            overhead = untraced / traced_rate - 1.0
            breakdown = serving_breakdown(result)
            layers_ms = breakdown["layers_ms"]
            accounting = breakdown["accounting"]
            unattributed = breakdown["unattributed_frac"]
            wall_label = (
                f"server op time {accounting.wall:.4f} ms over {breakdown['server_ops']} traced ops; "
                f"the client saw {breakdown['client_ms']:.4f} ms (transport is the difference)"
            )
        metrics["trace.overhead_frac"] = overhead
        metrics["trace.unattributed_frac"] = unattributed
        ranked = sorted(layers_ms.items(), key=lambda kv: -kv[1])
        print(f"layer self times vs wall: {wall_label}")
        total = sum(layers_ms.values())
        for name, value in ranked:
            print(f"  {name:22s} {value:12.3f} ms  {100 * value / total:5.1f}%")
        largest = next((n for n, _ in ranked if n not in UNATTRIBUTED), None)
        print(
            f"accounting: spans sum to {accounting.layers_sum:.6g} of wall {accounting.wall:.6g}, "
            f"error {100 * accounting.error_frac:.2f}% (tolerance {100 * accounting.tolerance:.0f}%): "
            f"{'ok' if accounting.ok else 'OUT OF TOLERANCE'}"
        )
        print(f"largest layer: {largest}")
        print(f"tracing overhead: {100 * overhead:.1f}% (untraced vs traced measurement)")
        out = {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in spec["per_layer"]}
        correct = failed == 0 and accounting.ok
    else:
        out = {m["name"]: {"value": float(e2e[m["name"]]), "unit": m["unit"]} for m in spec["end_to_end"]}
        correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


def _print_named(workload, result: dict) -> None:
    """The end-to-end metrics by their per-path names, with sample counts."""
    if workload.train:
        plain = [p["seconds"] for p in result["passes"] if not p["traced"]]
        print(f"train_s {statistics.median(plain):.4f} s (median of {len(plain)} passes over {result['instances']}), "
              f"{result['end_to_end']['latency_ms'] / 1e3:.4f} s scaled to the reference speed")
        return
    measure = result["measure"]
    if workload.predict_samples:
        p = measure["predict"]
        print(f"predict_samples_per_s {p['samples_per_s']:.1f} 1/s "
              f"({p['scaled_samples_per_s']:.1f} scaled; {p['rounds']} rounds, mean speed {p['speed']:.3f})")
        print(f"predict_p50_ms {p['p50_ms']:.4f} ms, predict_p99_ms {p['p99_ms']:.4f} ms "
              f"(n={p['n']}, {p['beyond_p99']} beyond p99)")
    if workload.stream:
        c = measure["chunk"]
        print(f"stream_samples_per_s {c['samples_per_s']:.1f} 1/s "
              f"({c['scaled_samples_per_s']:.1f} scaled; {c['rounds']} rounds, mean speed {c['speed']:.3f})")
        print(f"stream_chunk_p50_ms {c['p50_ms']:.4f} ms, stream_chunk_p99_ms {c['p99_ms']:.4f} ms "
              f"(n={c['n']}, {c['beyond_p99']} beyond p99)")


if __name__ == "__main__":
    sys.exit(main())
