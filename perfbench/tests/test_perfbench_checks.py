"""Wrong bits and sheds are failed operations, never successes."""

import time

import numpy as np

from loadgen import Recorder, Round, check_predict, check_solves, predict_loop, rounds_summary
from workloads import MODEL, make_model, make_requests


def _expected(classifier, pool):
    from repro.serve import BatchInferenceEngine

    engine = BatchInferenceEngine(classifier)
    return [(out.projection_raws, out.labels) for out in map(engine.run, pool)]


def _drive(classifier_served, serve_config, seconds=0.3):
    """Run one closed-loop predict connection against an in-process server."""
    from repro.serve import ModelRegistry, start_server_thread
    from repro.serve.registry import content_hash

    expected_model = make_model(7)
    pool = make_requests(7, 0, 8, 4)
    registry = ModelRegistry()
    registry.register(MODEL, classifier_served)
    handle = start_server_thread(registry, serve_config)
    rec = Recorder(stop_at=time.perf_counter() + seconds)
    try:
        predict_loop(handle.port, pool, _expected(expected_model, pool), content_hash(expected_model), rec)
    finally:
        handle.stop()
    return rec


def test_check_predict_accepts_exact_bits_only():
    from repro.serve import wire

    raws, labels = np.array([5, -3]), np.array([1, 0])
    good = wire.WireResponse(200, "abc", raws, labels, 0, 0)
    assert check_predict(good, raws, labels, "abc", "op") is None
    flipped = wire.WireResponse(200, "abc", raws, np.array([1, 1]), 0, 0)
    assert "differs" in check_predict(flipped, raws, labels, "abc", "op")
    other_model = wire.WireResponse(200, "def", raws, labels, 0, 0)
    assert check_predict(other_model, raws, labels, "abc", "op") is not None
    shed = wire.WireError(503, "admission control", shed=True)
    assert "shed=True" in check_predict(shed, raws, labels, "abc", "op")


def test_an_injected_wrong_label_fails_every_operation():
    from repro.core.classifier import FixedPointLinearClassifier
    from repro.serve import ServeConfig

    right = make_model(7)
    wrong = FixedPointLinearClassifier(
        weights=right.weights, threshold=right.threshold, fmt=right.fmt,
        rounding=right.rounding, polarity=-right.polarity,
    )
    rec = _drive(wrong, ServeConfig(port=0))
    assert rec.ops and len(rec.errors) == len(rec.ops)
    assert not any(op.ok for op in rec.ops)
    summary = rounds_summary(rec.ops, "predict", [Round(0.0, time.perf_counter())])
    assert summary["n"] == 0 and summary["samples_per_s"] == 0
    assert summary["scaled_samples_per_s"] == 0 and summary["scaled_mean_ms"] is None


def test_shed_requests_count_as_failures():
    from repro.serve import BatcherConfig, ServeConfig

    config = ServeConfig(port=0, batcher=BatcherConfig(max_pending_samples=4))
    rec = _drive(make_model(7), config)
    assert rec.ops and len(rec.errors) == len(rec.ops)
    assert all("shed=True" in message for message in rec.errors)


def test_the_right_model_passes():
    from repro.serve import ServeConfig

    rec = _drive(make_model(7), ServeConfig(port=0))
    assert rec.ops and rec.errors == [] and all(op.ok for op in rec.ops)


def test_solves_must_be_proven_optimal_at_the_pinned_cost():
    specs = [{"kind": "synthetic", "seed": 0, "int_bits": 2, "frac_bits": 3}]
    pinned = {"synthetic-s0-Q2.3": 0.6}
    passes = [
        {"solves": [{"cost": 0.6, "proven_optimal": True}]},
        {"solves": [{"cost": 0.61, "proven_optimal": True}]},
        {"solves": [{"cost": 0.6, "proven_optimal": False}]},
    ]
    attempted, errors = check_solves(specs, passes, pinned)
    assert attempted == 3 and len(errors) == 2
