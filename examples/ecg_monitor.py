#!/usr/bin/env python3
"""Wearable ECG arrhythmia alarm at microwatt budgets (second application).

The paper's introduction motivates on-chip classifiers with portable ECG
monitors.  This example builds that scenario: synthesize normal and PVC
(premature ventricular contraction) beats, extract eight adder/comparator-
friendly features, train LDA-FP at 4-8 bits, report the alarm's
sensitivity and false-alarm rate at the trained (grid-exact) threshold, and
price the implementation.

It then deploys the trained classifier end to end: the model is saved as a
``repro.fixed-point-classifier.v1`` JSON artifact, loaded into a
:class:`~repro.serve.ModelRegistry`, served over HTTP by the micro-batching
:mod:`repro.serve` runtime, and a stream of fresh beats is classified
through ``POST /predict`` — bit-identical to the on-chip datapath — before
the server's ``/metrics`` are scraped.

Run:  python examples/ecg_monitor.py
"""

from __future__ import annotations

import json
import tempfile
import urllib.request
from pathlib import Path

import numpy as np

from repro.core import LdaFpConfig, PipelineConfig, TrainingPipeline
from repro.core.serialize import save_classifier
from repro.data import make_ecg_dataset
from repro.data.scaling import FeatureScaler
from repro.hardware import build_report
from repro.serve import ModelRegistry, ServeConfig, start_server_thread


def main() -> None:
    train = make_ecg_dataset(400, seed=0)
    test = make_ecg_dataset(400, seed=1)
    print(f"ECG beats: {train.num_samples} train / {test.num_samples} test, "
          f"{train.num_features} features (label 1 = PVC)")

    print("\nword-length sweep (LDA-FP):")
    print("  WL | test error | proven")
    results = {}
    for wl in (4, 5, 6, 8):
        pipe = TrainingPipeline(
            PipelineConfig(
                method="lda-fp",
                ldafp=LdaFpConfig(max_nodes=60, time_limit=10),
            )
        )
        result = pipe.run(train, test, wl)
        results[wl] = result
        proven = result.ldafp_report.proven_optimal
        print(f"  {wl:2d} | {100 * result.test_error:9.2f}% | {proven}")

    # The alarm fires at the threshold LDA-FP trained into the register.
    chosen = results[5]
    classifier = chosen.classifier
    scaler = FeatureScaler(limit=0.45 * 2.0)
    scaler.fit(train.features)
    predicted = classifier.predict(scaler.transform(test.features))
    sensitivity = float(np.mean(predicted[test.labels == 1] == 1))
    false_alarms = float(np.mean(predicted[test.labels == 0] == 1))
    print(f"\nalarm threshold {classifier.threshold:+.4f} (trained, 5 bits): "
          f"sensitivity {100 * sensitivity:.1f}%, "
          f"false alarms {100 * false_alarms:.2f}%")

    print()
    print(build_report(classifier, test_error=chosen.test_error,
                       reference_word_length=12).text)

    serve_demo(classifier)


def serve_demo(classifier, num_beats: int = 24) -> None:
    """Save the trained model, serve it, and stream beats through HTTP."""
    print("\n--- serving demo: save artifact -> serve -> stream beats ---")
    with tempfile.TemporaryDirectory() as tmp:
        artifact = Path(tmp) / "ecg_alarm.json"
        save_classifier(classifier, str(artifact))
        print(f"artifact saved to {artifact.name} "
              f"({artifact.stat().st_size} bytes of auditable JSON)")

        registry = ModelRegistry()
        model = registry.register_file("ecg-alarm", str(artifact))
        print(f"registered {model.describe()}")

        handle = start_server_thread(registry, ServeConfig(port=0))
        try:
            # Fresh beats the monitor has never seen, streamed one by one
            # exactly as a wearable would deliver them.
            stream = make_ecg_dataset(num_beats // 2, seed=7)
            alarms = 0
            for beat in stream.features:
                body = json.dumps({"features": [float(v) for v in beat]})
                request = urllib.request.Request(
                    handle.url + "/predict",
                    data=body.encode(),
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request, timeout=10) as response:
                    reply = json.loads(response.read())
                alarms += reply["labels"][0]
            local = classifier.predict_bitexact(stream.features)
            print(f"streamed {stream.num_samples} beats over HTTP: "
                  f"{alarms} alarms (bit-exact local replay agrees: "
                  f"{alarms == int(local.sum())})")

            with urllib.request.urlopen(handle.url + "/metrics", timeout=10) as resp:
                metric_lines = [
                    line for line in resp.read().decode().splitlines()
                    if not line.startswith("#")
                ]
            print("server metrics after the stream:")
            for line in metric_lines:
                print(f"  {line}")
        finally:
            handle.stop()


if __name__ == "__main__":
    main()
