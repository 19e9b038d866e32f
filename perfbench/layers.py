"""The layer boundaries a traced run wraps, and the per-layer metrics they yield.

Each ``install_*`` function wraps public callables of the program's layers
with a :class:`~spans.Tracer`; each ``*_metrics`` function turns the
recorded spans into the ``per_layer`` metrics of ``BENCHMARK.json`` plus a
layer breakdown of wall time.

Serving spans, per wire frame on its connection task::

    op (root; kind = decoded frame type)
      wire.decode
      stream.chunk          StreamSession.process_chunk
        fir                 FixedPointFirStream.process
        window              WindowStream.process
        features            extract_beat_features as bound in repro.serve.stream
      batcher.submit        MicroBatcher.submit_model (the whole await)
        -> link engine.run  BatchInferenceEngine.run / run_raw, executor thread
      wire.encode

Training spans, per ``train_lda_fp`` call (the root, opened by the worker)::

    train
      presolve              Presolver.presolve
      relax                 LdaFpNodeProblem.relax / relax_child / relax_child_with_incumbent
        slsqp               solve_with_slsqp as bound in repro.core.ldafp
      candidates            LdaFpNodeProblem.candidates
        localsearch         coordinate_descent as bound in repro.core.ldafp
      terminal              LdaFpNodeProblem.resolve_terminal
      branch                branch / branch_override / branch_dimension, Box.split / split_at
"""

from __future__ import annotations

import functools
from typing import Dict, List

import numpy as np

from spans import Span, Tracer, layer_self_times, self_times

#: Attribute carrying the engine span id on a BatchResult and its slices.
ENGINE_TAG = "_perfbench_engine_span"
SHED_ERRORS = ("OverloadedError", "DeadlineExceededError")

#: Layer names in breakdowns, from span names.
SERVING_LAYER_NAMES = {
    "op": "server.other",
    "batcher.submit": "batcher.wait",
    "stream.chunk": "stream.chunk_self",
}
TRAINING_LAYER_NAMES = {
    "train": "train.other",
    "relax": "relax.self",
    "candidates": "candidates.self",
    "terminal": "terminal.self",
}


# ---------------------------------------------------------------------- #
# Serving
# ---------------------------------------------------------------------- #
def install_serving(tracer: Tracer) -> None:
    from repro.serve import stream as serve_stream
    from repro.serve import wire
    from repro.serve.batcher import MicroBatcher
    from repro.serve.engine import BatchInferenceEngine, BatchResult
    from repro.signal.stream import FixedPointFirStream, WindowStream

    def decode(fn):
        @functools.wraps(fn)
        def traced(body):
            # The op stays current on the connection task until an encoder
            # closes it, so everything the server does for this frame nests.
            op, _ = tracer.open("op", root=True)
            span, token = tracer.open("wire.decode")
            try:
                request = fn(body)
            finally:
                tracer.close(span, token)
            op.attrs["kind"] = type(request).__name__
            return request

        return traced

    def encode(fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = tracer.current()
            span, token = tracer.open("wire.encode")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span, token)
                if op is not None and op.name == "op":
                    op.end = span.end
                    tracer.detach()

        return traced

    def submit(fn):
        @functools.wraps(fn)
        async def traced(self, model, features, *args, **kwargs):
            span, token = tracer.open("batcher.submit", samples=int(np.shape(features)[0]))
            try:
                result = await fn(self, model, features, *args, **kwargs)
                span.link = getattr(result, ENGINE_TAG, None)
                return result
            except Exception as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                tracer.close(span, token)

        return traced

    def engine(fn):
        @functools.wraps(fn)
        def traced(self, features):
            span, token = tracer.open("engine.run", samples=int(np.shape(features)[0]))
            try:
                result = fn(self, features)
            finally:
                tracer.close(span, token)
            object.__setattr__(result, ENGINE_TAG, span.id)
            return result

        return traced

    def slice_(fn):
        @functools.wraps(fn)
        def traced(self, lo, hi):
            out = fn(self, lo, hi)
            tag = getattr(self, ENGINE_TAG, None)
            if tag is not None:
                object.__setattr__(out, ENGINE_TAG, tag)
            return out

        return traced

    tracer.install(wire, "decode_body", decode)
    for name in (
        "encode_response", "encode_error", "encode_stream_opened",
        "encode_stream_result", "encode_stream_closed",
    ):
        tracer.install(wire, name, encode)
    tracer.install(MicroBatcher, "submit_model", submit)
    tracer.install(BatchInferenceEngine, "run", engine)
    tracer.install(BatchInferenceEngine, "run_raw", engine)
    tracer.install(BatchResult, "slice", slice_)
    tracer.install(serve_stream.StreamSession, "process_chunk", lambda f: tracer.wrap(f, "stream.chunk"))
    tracer.install(FixedPointFirStream, "process", lambda f: tracer.wrap(f, "fir"))
    tracer.install(WindowStream, "process", lambda f: tracer.wrap(f, "window"))
    tracer.install(serve_stream, "extract_beat_features", lambda f: tracer.wrap(f, "features"))


def _mean(values: List[float]) -> float:
    return float(np.mean(values)) if values else 0.0


def serving_metrics(spans: List[Span], window_s: float) -> dict:
    """Per-layer metrics and per-op-kind layer breakdowns of a traced window.

    Returns ``{"per_layer": {...}, "ops": {kind: {"count", "mean_ms",
    "layers_ms": {layer: mean ms per op}}}}``.  ``mean_ms`` is the server's
    own op time; the caller compares it with the latency its client saw.
    """
    done = [s for s in spans if s.end is not None]
    named: Dict[str, List[Span]] = {}
    for s in done:
        named.setdefault(s.name, []).append(s)
    own = self_times(done)
    by_id = {s.id: s for s in done}
    engines = {s.id: s for s in named.get("engine.run", ())}
    submits = named.get("batcher.submit", [])
    waits = [s.duration - engines[s.link].duration for s in submits if s.link in engines]
    top_encodes = [
        s for s in named.get("wire.encode", ())
        if s.parent in by_id and by_id[s.parent].name == "op"
    ]
    engine_busy = sum(s.duration for s in engines.values())
    fir_busy = sum(s.duration for s in named.get("fir", ()))
    per_layer = {
        "wire.decode_us": 1e6 * _mean([s.duration for s in named.get("wire.decode", ())]),
        "wire.encode_us": 1e6 * _mean([s.duration for s in top_encodes]),
        "wire.frames": len(named.get("wire.decode", ())),
        "batcher.wait_ms": 1e3 * _mean(waits),
        "batcher.samples_per_batch": _mean([s.attrs["samples"] for s in engines.values()]),
        "batcher.shed": sum(1 for s in submits if s.attrs.get("error") in SHED_ERRORS),
        "engine.run_us": 1e6 * _mean([s.duration for s in engines.values()]),
        "engine.calls": len(engines),
        "engine.busy_frac": engine_busy / window_s,
        "stream.chunk_self_us": 1e6 * _mean([own[s.id] for s in named.get("stream.chunk", ())]),
        "fir.us_per_chunk": 1e6 * _mean([s.duration for s in named.get("fir", ())]),
        "fir.busy_frac": fir_busy / window_s,
        "window.us_per_chunk": 1e6 * _mean([s.duration for s in named.get("window", ())]),
        "features.us_per_window": 1e6 * _mean([s.duration for s in named.get("features", ())]),
    }
    ops: Dict[str, dict] = {}
    kinds: Dict[str, List[Span]] = {}
    for op in named.get("op", ()):
        kinds.setdefault(op.attrs.get("kind", "unknown"), []).append(op)
    for kind, roots in kinds.items():
        layers = layer_self_times(roots, done, SERVING_LAYER_NAMES)
        ops[kind] = {
            "count": len(roots),
            "mean_ms": 1e3 * _mean([r.duration for r in roots]),
            "layers_ms": {k: 1e3 * v / len(roots) for k, v in sorted(layers.items())},
        }
    return {"per_layer": per_layer, "ops": ops}


# ---------------------------------------------------------------------- #
# Training
# ---------------------------------------------------------------------- #
class TrialCounter:
    """Counts scale-ladder trials generated and candidates kept by screening."""

    def __init__(self) -> None:
        self.trials = 0
        self.kept = 0


def install_training(tracer: Tracer, counter: TrialCounter) -> None:
    from repro.core import ldafp
    from repro.optim.boxes import Box
    from repro.optim.presolve import Presolver

    node = ldafp.LdaFpNodeProblem

    def candidates(fn):
        @functools.wraps(fn)
        def traced(self, box, relaxation):
            span, token = tracer.open("candidates")
            try:
                out = fn(self, box, relaxation)
            finally:
                tracer.close(span, token)
            if relaxation.solution is not None:
                counter.trials += 1  # the rounded relaxation point itself
            counter.kept += len(out)
            return out

        return traced

    def ladder(fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = list(fn(*args, **kwargs))
            current = tracer.current()
            if current is not None and current.name == "candidates":
                counter.trials += len(out)
            return out

        return counted

    tracer.install(Presolver, "presolve", lambda f: tracer.wrap(f, "presolve"))
    for name in ("relax", "relax_child", "relax_child_with_incumbent"):
        tracer.install(node, name, lambda f: tracer.wrap(f, "relax"))
    tracer.install(ldafp, "solve_with_slsqp", lambda f: tracer.wrap(f, "slsqp"))
    tracer.install(node, "candidates", candidates)
    tracer.install(ldafp, "coordinate_descent", lambda f: tracer.wrap(f, "localsearch"))
    tracer.install(ldafp, "scale_sweep_candidates", ladder)
    tracer.install(node, "resolve_terminal", lambda f: tracer.wrap(f, "terminal"))
    for owner, name in (
        (node, "branch"), (node, "branch_override"), (node, "branch_dimension"),
        (Box, "split"), (Box, "split_at"),
    ):
        tracer.install(owner, name, lambda f: tracer.wrap(f, "branch"))


def training_metrics(spans: List[Span], nodes: int, counter: TrialCounter) -> dict:
    """Per-layer metrics (ms summed over one pass) and the pass's layer breakdown."""
    done = [s for s in spans if s.end is not None]
    roots = [s for s in done if s.name == "train"]
    layers = layer_self_times(roots, done, TRAINING_LAYER_NAMES)
    ms = {k: 1e3 * v for k, v in layers.items()}
    per_layer = {
        "presolve.ms": ms.get("presolve", 0.0),
        "relax.self_ms": ms.get("relax.self", 0.0),
        "slsqp.ms": ms.get("slsqp", 0.0),
        "candidates.self_ms": ms.get("candidates.self", 0.0),
        "localsearch.ms": ms.get("localsearch", 0.0),
        "terminal.self_ms": ms.get("terminal.self", 0.0),
        "branch.ms": ms.get("branch", 0.0),
        "bnb.nodes": nodes,
        "candidates.yield": counter.kept / counter.trials if counter.trials else 0.0,
    }
    return {"per_layer": per_layer, "layers_ms": dict(sorted(ms.items()))}
