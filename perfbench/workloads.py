"""The benchmark's workloads: why each exists, and the inputs it generates.

Serving inputs come from the ``--seed`` argument; the training instances
are fixed (``instances.py`` says why).  The program under test only ever
receives the generated model artifact, request payloads, waveform and
datasets.  Serving workloads are closed loops: each of at most two wire
connections sends its next frame only after the previous answer arrived
(the wire protocol answers one connection's frames in order), so a slower
server simply receives less load.  The multi-worker cluster is left out:
on a two-core host with one core driving load it cannot show scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

#: Samples per pushed stream chunk (0.4 s of ECG at 250 Hz).
CHUNK = 100
#: Beats per synthesized recording; a session that reaches the end closes
#: and a fresh session replays the recording.
RECORDING_BEATS = 40
MODEL = "ecg"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loads: Tuple[str, ...]
    bypasses: Tuple[str, ...]
    #: Feature samples per predict request.
    predict_samples: int
    #: Closed-loop predict connections.
    predict_connections: int
    #: Whether one connection streams the waveform instead of predicting.
    stream: bool
    train: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="predict_small",
            why=(
                "8-sample requests stay below the 64-sample flush size, so latency "
                "is set by the batcher's 5 ms queue wait and per-call costs, not by arithmetic"
            ),
            loads=("serve.batcher", "serve.wire"),
            bypasses=("signal.stream", "data.ecg", "core.ldafp", "optim"),
            predict_samples=8,
            predict_connections=2,
            stream=False,
        ),
        Workload(
            name="predict_bulk",
            why=(
                "512-sample requests flush a batch each, so the engine and the wire "
                "codec (32 KB frames) carry the work"
            ),
            loads=("serve.engine", "serve.wire"),
            bypasses=("signal.stream", "data.ecg", "core.ldafp", "optim"),
            predict_samples=512,
            predict_connections=2,
            stream=False,
        ),
        Workload(
            name="stream_mixed",
            why=(
                "a wire-v2 ECG stream in 100-sample chunks runs the fixed-point FIR on "
                "the event loop, which sets stream throughput and stalls a co-resident "
                "8-sample predict connection"
            ),
            loads=("signal.stream", "serve.stream", "data.ecg", "serve.batcher"),
            bypasses=("core.ldafp", "optim"),
            predict_samples=8,
            predict_connections=1,
            stream=True,
        ),
        Workload(
            name="train_optimal",
            why=(
                "serial train_lda_fp solves to proven optimality load the solver layers "
                "(presolve, relaxation, candidate screening, branching) and no serving layer"
            ),
            loads=("core.ldafp", "optim"),
            bypasses=("serve.wire", "serve.batcher", "serve.engine", "signal.stream"),
            predict_samples=0,
            predict_connections=0,
            stream=False,
            train=True,
        ),
    )
}


def make_model(seed: int):
    """A grid-exact Q3.5 classifier over the 8 ECG beat features."""
    from repro.conformance.strategies import random_classifier

    return random_classifier(np.random.default_rng([seed, 1]), 3, 5, 8)


def make_requests(seed: int, connection: int, samples: int, count: int) -> List[np.ndarray]:
    """A pool of predict payloads for one connection, cycled during the run.

    Values span the Q3.5 range and past it, so saturation is exercised.
    """
    rng = np.random.default_rng([seed, 2, connection])
    return [rng.normal(0.0, 1.5, size=(samples, 8)) for _ in range(count)]


def make_recording(seed: int) -> np.ndarray:
    """A synthesized ECG recording with about one beat in four abnormal."""
    from repro.data.ecg import EcgBeatConfig, synthesize_beat

    rng = np.random.default_rng([seed, 3])
    config = EcgBeatConfig(sample_rate=250.0)
    return np.concatenate(
        [synthesize_beat(config, rng, abnormal=bool(rng.random() < 0.25)) for _ in range(RECORDING_BEATS)]
    )
