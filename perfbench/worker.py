"""The process under test: the serving endpoint or the trainer.

Started by ``run.py`` as ``python3 perfbench/worker.py`` with ``src`` on
``PYTHONPATH``, so the load generator and the program never share an
interpreter lock.  It speaks JSON lines: the first stdin line is the job;
stdout carries ``{"ready": ...}`` once the job is set up, then the result.

Serving job: ``{"mode": "serve", "models": {name: artifact}}``.  After
``ready`` (with the bound port) the other stdin commands are ``trace``
(install the layer wrappers; answered with ``{"traced": true}``) and
``stop`` (drain, then answer ``{"done": true, "rss_mb", "layers"}``).

Training job: ``{"mode": "train", "instances": [...], "seconds", "trace"}``.
After ``ready`` it waits for ``go`` (or ``stop``), solves full passes over
the instance list (at least two, more while they fit in ``seconds``), then
one traced pass if asked, and answers ``{"done": true, "rss_mb", "passes",
"layers"}``.  Each pass carries the kernel times that sampled the core's
speed while it ran (``solve_pass`` says how).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import resource
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from speed import Sampler, calibrate  # noqa: E402


def send(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def serve(job: dict) -> None:
    from layers import install_serving, serving_metrics
    from repro.core.serialize import classifier_from_dict
    from repro.serve import InferenceServer, ModelRegistry, ServeConfig
    from spans import Tracer

    registry = ModelRegistry()
    for name, artifact in job["models"].items():
        registry.register(name, classifier_from_dict(artifact))
    server = InferenceServer(registry, ServeConfig(port=0))
    tracer = Tracer()
    window = {}

    async def main() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()

        def start_trace() -> None:
            install_serving(tracer)
            window["on"] = time.perf_counter()
            send({"traced": True})

        def control() -> None:
            for line in sys.stdin:
                if line.strip() == "trace":
                    loop.call_soon_threadsafe(start_trace)
                elif line.strip() == "stop":
                    break
            loop.call_soon_threadsafe(stop.set)

        await server.start()
        send({
            "ready": True,
            "port": server.port,
            "backends": {m.name: m.engine.backend for m in registry.models()},
        })
        reader = threading.Thread(target=control, daemon=True)
        reader.start()
        await stop.wait()
        window["off"] = time.perf_counter()
        tracer.restore()
        await server.close()

    asyncio.run(main())
    layers = (
        serving_metrics(tracer.spans, window["off"] - window["on"]) if "on" in window else None
    )
    send({"done": True, "rss_mb": peak_rss_mb(), "layers": layers})


def train(job: dict) -> None:
    from instances import SOLVER, build_dataset
    from layers import TrialCounter, install_training, training_metrics
    from repro.core.ldafp import LdaFpConfig, train_lda_fp
    from repro.fixedpoint.qformat import QFormat
    from spans import Tracer

    specs = job["instances"]
    datasets = [build_dataset(spec) for spec in specs]
    send({"ready": True})
    if sys.stdin.readline().strip() != "go":
        return
    config = LdaFpConfig(**SOLVER)

    def solve(spec, dataset, tracer) -> dict:
        fmt = QFormat(spec["int_bits"], spec["frac_bits"])
        if tracer is None:
            _, report = train_lda_fp(dataset, fmt, config)
        else:
            span, token = tracer.open("train", root=True)
            try:
                _, report = train_lda_fp(dataset, fmt, config)
            finally:
                tracer.close(span, token)
        return {"cost": report.cost, "proven_optimal": report.proven_optimal, "nodes": report.nodes_expanded}

    def solve_pass(tracer=None) -> dict:
        """Every instance once, with the core's speed sampled alongside.

        Untraced passes sample it during the solves (``speed.Sampler``) and
        leave the samples' time out of each solve's; a traced pass
        calibrates between solves instead, so that the spans cover exactly
        the time the trainer measures.
        """
        solves = []
        sampler = Sampler() if tracer is None else contextlib.nullcontext()
        calibrations = [] if tracer is None else calibrate()
        with sampler:
            for spec, dataset in zip(specs, datasets):
                spent = sampler.spent if tracer is None else 0.0
                started = time.perf_counter()
                result = solve(spec, dataset, tracer)
                seconds = time.perf_counter() - started
                if tracer is None:
                    seconds -= sampler.spent - spent
                else:
                    calibrations += calibrate()
                solves.append(dict(result, seconds=seconds))
        if tracer is None:
            calibrations = sampler.samples
        return {"traced": tracer is not None, "solves": solves, "calibrations": calibrations,
                "seconds": sum(s["seconds"] for s in solves)}

    # At least two passes; more while they fit in the run.
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(solve_pass())
        elapsed = time.perf_counter() - started
        if len(passes) >= 2 and elapsed + passes[-1]["seconds"] > job["seconds"]:
            break
    layers = None
    if job["trace"]:
        tracer, counter = Tracer(), TrialCounter()
        install_training(tracer, counter)
        try:
            traced = solve_pass(tracer)
        finally:
            tracer.restore()
        passes.append(traced)
        nodes = sum(s["nodes"] for s in traced["solves"])
        layers = training_metrics(tracer.spans, nodes, counter)
    send({"done": True, "rss_mb": peak_rss_mb(), "passes": passes, "layers": layers})


def main() -> int:
    job = json.loads(sys.stdin.readline())
    {"serve": serve, "train": train}[job["mode"]](job)
    return 0


if __name__ == "__main__":
    sys.exit(main())
