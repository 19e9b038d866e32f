"""Load generation, output checks and timing for every workload.

The load generator is this process; the program under test runs in a
worker process (``worker.py``).  Serving connections are closed loops on
at most two threads.  Every answer is checked bit for bit before it counts:
predict responses against engine outputs computed here during set-up,
stream results against ``run_offline`` on the same recording, and training
solves against the pinned optima.  A failed, shed or wrong answer is a
failed operation and its message is kept; nothing is dropped.
"""

from __future__ import annotations

import bisect
import json
import os
import select
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from pinning import WORKER_ENV, pin
from speed import calibrate, factor
from workloads import CHUNK, MODEL, Workload, make_model, make_recording, make_requests

HERE = os.path.dirname(os.path.abspath(__file__))
#: Worker spawns per run; set-up time is their median.
SETUP_REPEATS = 5
#: Closed-loop traffic before timing starts (connections warm, caches filled).
WARMUP_S = 1.0
#: Traffic between two calibrations, and kernel runs in each.
ROUND_S = 0.5
ROUND_CALIBRATION = 3
#: Payloads per predict connection, cycled.
POOL_REQUESTS = {8: 256, 512: 32}
#: Share by which the summed layer self times may miss the measured wall
#: time: the server's op time (serving) or the solve time the trainer timed
#: around each ``train_lda_fp`` call (training).
SERVING_TOLERANCE = 0.01
TRAINING_TOLERANCE = 0.01


class Worker:
    """One worker process speaking JSON lines; always reaped by :meth:`close`."""

    def __init__(self, root: str, job: dict) -> None:
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""), **WORKER_ENV)
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=root, env=env, bufsize=0,
        )
        pin(self.proc.pid)
        self._buffer = b""
        self.send(json.dumps(job))

    def send(self, line: str) -> None:
        self.proc.stdin.write(line.encode() + b"\n")
        self.proc.stdin.flush()

    def receive(self, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("worker did not answer in time")
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    raise RuntimeError(f"worker exited with code {self.proc.wait()}")
                self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return json.loads(line)

    def close(self, timeout: float = 30.0) -> None:
        if self.proc.poll() is None:
            try:
                self.send("stop")
                self.proc.stdin.close()
                self.proc.wait(timeout=timeout)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if not pipe.closed:
                pipe.close()


def set_up(root: str, job: dict, first_answer=None):
    """Launches the worker ``SETUP_REPEATS`` times and times each launch.

    A launch ends when the worker is ready and, if given, ``first_answer``
    (called with the ready message) returned.  Each time is scaled by the
    calibrations just before and after it.  Returns the last worker, still
    running, its ready message and ``{"raw": [...], "scaled": [...]}``.
    """
    setups: Dict[str, List[float]] = {"raw": [], "scaled": []}
    for attempt in range(SETUP_REPEATS):
        before = calibrate()
        worker = Worker(root, job)
        try:
            ready = worker.receive(timeout=60)
            if first_answer is not None:
                first_answer(ready)
            seconds = time.perf_counter() - worker.started
        except BaseException:
            worker.close()
            raise
        setups["raw"].append(seconds)
        setups["scaled"].append(seconds * factor(before + calibrate()))
        if attempt < SETUP_REPEATS - 1:
            worker.close()
    return worker, ready, setups


@dataclass
class Op:
    kind: str
    sent: float
    done: float
    samples: int
    ok: bool

    @property
    def latency_ms(self) -> float:
        return 1e3 * (self.done - self.sent)


class Recorder:
    """Operations and failure messages of all connections, plus the traffic gate.

    Connections call :meth:`gate` before each operation.  :meth:`pause`
    holds them there and returns once every live connection is parked, so
    no operation straddles a pause; :meth:`resume` lets them go on.
    """

    def __init__(self, stop_at: float = float("inf")) -> None:
        self.stop_at = stop_at
        self.ops: List[Op] = []
        self.errors: List[str] = []
        self.lock = threading.Lock()
        self._gate = threading.Condition()
        self._paused = False
        self._live = 0
        self._parked = 0

    def add(self, op: Op, error: Optional[str] = None) -> None:
        with self.lock:
            self.ops.append(op)
            if error is not None:
                self.errors.append(error)

    def join(self) -> None:
        with self._gate:
            self._live += 1

    def leave(self) -> None:
        with self._gate:
            self._live -= 1
            self._gate.notify_all()

    def gate(self) -> bool:
        """Wait while paused; False once the run is over."""
        with self._gate:
            if self._paused:
                self._parked += 1
                self._gate.notify_all()
                self._gate.wait_for(lambda: not self._paused)
                self._parked -= 1
        return time.perf_counter() < self.stop_at

    def pause(self, timeout: float = 60.0) -> float:
        """Park every live connection; the time the last one parked."""
        with self._gate:
            self._paused = True
            if not self._gate.wait_for(lambda: self._parked >= self._live, timeout):
                raise TimeoutError("a connection did not finish its operation in time")
        return time.perf_counter()

    def resume(self) -> float:
        with self._gate:
            self._paused = False
            self._gate.notify_all()
        return time.perf_counter()

    def stop(self) -> None:
        self.stop_at = time.perf_counter()
        self.resume()


def latency_summary(latencies_ms: List[float]) -> dict:
    """Median and p99 with the sample count and how many samples lie beyond p99."""
    n = len(latencies_ms)
    if n == 0:
        return {"n": 0, "p50_ms": None, "p99_ms": None, "beyond_p99": 0}
    p99 = float(np.percentile(latencies_ms, 99))
    return {
        "n": n,
        "p50_ms": float(np.percentile(latencies_ms, 50)),
        "p99_ms": p99,
        "beyond_p99": int(sum(1 for v in latencies_ms if v > p99)),
    }


# ---------------------------------------------------------------------- #
# Serving
# ---------------------------------------------------------------------- #
def check_predict(reply, raws, labels, content_hash: str, what: str) -> Optional[str]:
    """None when ``reply`` is a response with exactly the expected bits."""
    from repro.serve import wire

    if not isinstance(reply, wire.WireResponse):
        return f"{what}: {reply!r}"
    if (
        reply.content_hash != content_hash
        or not np.array_equal(reply.projection_raws, raws)
        or not np.array_equal(reply.labels, labels)
    ):
        return f"{what}: answer differs from the engine's precomputed bits"
    return None


def predict_loop(port, pool, expected, content_hash, rec: Recorder) -> None:
    from repro.serve import wire

    # Frames are encoded once, so the generator spends its core on answers.
    frames = [wire.encode_request(features, model=MODEL) for features in pool]
    rec.join()
    try:
        with wire.WireClient("127.0.0.1", port, timeout=30.0) as client:
            i = 0
            while rec.gate():
                features = pool[i % len(pool)]
                raws, labels = expected[i % len(pool)]
                sent = time.perf_counter()
                reply = client.send_bytes(frames[i % len(pool)])
                done = time.perf_counter()
                error = check_predict(reply, raws, labels, content_hash, f"predict {i}")
                rec.add(Op("predict", sent, done, len(features), error is None), error)
                i += 1
    except Exception as exc:  # a dead connection is a failed operation, not a crash
        now = time.perf_counter()
        rec.add(Op("predict", now, now, 0, False), f"predict connection: {exc!r}")
    finally:
        rec.leave()


def _stream_loop(port, recording, config, expected, content_hash, rec: Recorder) -> None:
    from repro.serve import wire

    want_labels = np.asarray(expected["labels"])
    want_raws = np.asarray(expected["projection_raws"])
    session = 0
    rec.join()
    try:
        with wire.WireClient("127.0.0.1", port, timeout=30.0) as client:
            while rec.gate():
                key = f"ecg-{session}"
                sent = time.perf_counter()
                opened = client.open_stream(key, config=config.to_dict(), model=MODEL)
                ok = isinstance(opened, wire.StreamOpened) and opened.content_hash == content_hash
                rec.add(Op("ctl", sent, time.perf_counter(), 0, ok), None if ok else f"open {key}: {opened!r}")
                if not ok:
                    return
                delivered = 0
                for seq, start in enumerate(range(0, recording.size, CHUNK)):
                    if not rec.gate():
                        return
                    chunk = recording[start:start + CHUNK]
                    sent = time.perf_counter()
                    reply = client.send_chunk(key, seq, chunk)
                    done = time.perf_counter()
                    error = None
                    if not isinstance(reply, wire.StreamResult):
                        error = f"{key} chunk {seq}: {reply!r}"
                    else:
                        idx = np.asarray(reply.window_indices, dtype=np.int64)
                        if (
                            not np.array_equal(idx, np.arange(delivered, delivered + idx.size))
                            or not np.array_equal(reply.labels, want_labels[idx])
                            or not np.array_equal(reply.projection_raws, want_raws[idx])
                        ):
                            error = f"{key} chunk {seq}: windows differ from run_offline"
                        delivered += idx.size
                    rec.add(Op("chunk", sent, done, chunk.size, error is None), error)
                if not rec.gate():
                    return
                sent = time.perf_counter()
                closed = client.close_stream(key)
                ok = (
                    isinstance(closed, wire.StreamClosed)
                    and closed.windows == expected["num_windows"] == delivered
                )
                rec.add(Op("ctl", sent, time.perf_counter(), 0, ok), None if ok else f"close {key}: {closed!r}, {delivered} windows delivered")
                session += 1
    except Exception as exc:
        now = time.perf_counter()
        rec.add(Op("chunk", now, now, 0, False), f"stream connection: {exc!r}")
    finally:
        rec.leave()


@dataclass
class Round:
    """One stretch of traffic between two pauses, and the host's speed around it."""

    start: float
    end: float
    #: ``speed.factor`` of the calibrations just before and just after.
    speed: float = 1.0


def rounds_summary(ops: List[Op], kind: str, rounds: List[Round]) -> dict:
    """Throughput and latency of the successful ``kind`` ops of ``rounds``.

    The plain figures are over the rounds' summed length.  The ``scaled_*``
    figures are medians over rounds of each round's figure put on the
    reference speed scale with that round's speed: calibrations on the
    same core, a fraction of a second before and after the traffic they
    scale, follow the host's speed more closely than a run's mean does, and
    a median leaves out the rounds in which the speed changed mid-round.
    Latency is a round's mean op latency, not a median, because stream
    chunk latency is bimodal (chunks that complete a window also wait for
    the batcher) and a median flips between the modes.
    """
    starts = [r.start for r in rounds]
    chosen: List[List[Op]] = [[] for _ in rounds]
    for op in ops:
        i = bisect.bisect_right(starts, op.sent) - 1
        if op.kind == kind and op.ok and i >= 0 and op.done <= rounds[i].end:
            chosen[i].append(op)
    every = [op for round_ops in chosen for op in round_ops]
    summary = latency_summary([op.latency_ms for op in every])
    length = sum(r.end - r.start for r in rounds)
    summary["samples_per_s"] = sum(op.samples for op in every) / length if length else 0.0
    summary["mean_ms"] = float(np.mean([op.latency_ms for op in every])) if every else None
    rates = [
        sum(op.samples for op in round_ops) / (r.end - r.start) / r.speed
        for r, round_ops in zip(rounds, chosen)
    ]
    latencies = [
        float(np.mean([op.latency_ms for op in round_ops])) * r.speed
        for r, round_ops in zip(rounds, chosen)
        if round_ops
    ]
    summary["scaled_samples_per_s"] = statistics.median(rates) if rates else 0.0
    summary["scaled_mean_ms"] = statistics.median(latencies) if latencies else None
    summary["rounds"] = len(rounds)
    summary["speed"] = statistics.mean(r.speed for r in rounds) if rounds else 1.0
    return summary


def drive_rounds(rec: Recorder, seconds: float) -> List[Round]:
    """Traffic in rounds of ``ROUND_S``, the core calibrated between them.

    Traffic is paused during a calibration, so the worker, pinned to the
    same core, leaves the core to the kernel.
    """
    rounds: List[Round] = []
    before = calibrate(ROUND_CALIBRATION)
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        start = rec.resume()
        time.sleep(ROUND_S)
        stop = rec.pause()
        after = calibrate(ROUND_CALIBRATION)
        rounds.append(Round(start, stop, factor(before + after)))
        before = after
    return rounds


def run_serving(root: str, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    from repro.core.serialize import classifier_to_dict
    from repro.serve import BatchInferenceEngine, ModelRegistry
    from repro.serve.registry import content_hash
    from repro.serve.stream import FrontEndConfig, run_offline

    # Inputs and the expected bits; none of this is timed.
    classifier = make_model(seed)
    expected_hash = content_hash(classifier)
    engine = BatchInferenceEngine(classifier)
    pools = []
    for c in range(workload.predict_connections):
        pool = make_requests(seed, c, workload.predict_samples, POOL_REQUESTS[workload.predict_samples])
        outs = [engine.run(features) for features in pool]
        pools.append((pool, [(o.projection_raws, o.labels) for o in outs]))
    if workload.stream:
        recording = make_recording(seed)
        front_end = FrontEndConfig()
        offline = run_offline(ModelRegistry().register(MODEL, classifier), front_end, recording)

    job = {"mode": "serve", "models": {MODEL: classifier_to_dict(classifier)}}
    worker, ready, threads = None, None, []
    rec = Recorder()
    result: dict = {}
    try:
        worker, ready, setups = set_up(
            root, job, lambda ready: _predict_once(ready["port"], pools[0], expected_hash, rec)
        )
        port = ready["port"]
        rec.pause()
        threads = [
            threading.Thread(target=predict_loop, args=(port, pool, exp, expected_hash, rec))
            for pool, exp in pools
        ]
        if workload.stream:
            threads.append(threading.Thread(
                target=_stream_loop, args=(port, recording, front_end, offline, expected_hash, rec)
            ))
        for thread in threads:
            thread.start()
        rec.resume()
        time.sleep(WARMUP_S)
        rec.pause()
        phases = {"measure": drive_rounds(rec, seconds / 2 if trace else seconds)}
        if trace:
            worker.send("trace")
            worker.receive(timeout=30)
            phases["traced"] = drive_rounds(rec, seconds / 2)
        rec.stop()
        for thread in threads:
            thread.join(timeout=60)
        worker.send("stop")
        done = worker.receive(timeout=60)
    finally:
        rec.stop()
        for thread in threads:
            thread.join(timeout=60)
        if worker is not None:
            worker.close()

    primary = "chunk" if workload.stream else "predict"
    for name, rounds in phases.items():
        result[name] = {kind: rounds_summary(rec.ops, kind, rounds) for kind in ("predict", "chunk")}
    main = result["measure"][primary]
    result.update(
        primary=primary,
        setups_s=setups,
        rss_mb=done["rss_mb"],
        backends=ready["backends"],
        ops=rec.ops,
        errors=rec.errors,
        end_to_end={
            "setup_s": statistics.median(setups["scaled"]),
            "rss_mb": done["rss_mb"],
            "work_per_s": main["scaled_samples_per_s"],
            "latency_ms": main["scaled_mean_ms"],
        },
        layers=done["layers"],
    )
    return result


def _predict_once(port, pool, content_hash, rec: Recorder) -> None:
    """The first answered request of a fresh server (the end of its set-up)."""
    from repro.serve import wire

    features, (raws, labels) = pool[0][0], pool[1][0]
    with wire.WireClient("127.0.0.1", port, timeout=30.0) as client:
        sent = time.perf_counter()
        reply = client.request(features, model=MODEL)
        done = time.perf_counter()
    error = check_predict(reply, raws, labels, content_hash, "first request")
    rec.add(Op("setup", sent, done, len(features), error is None), error)


# ---------------------------------------------------------------------- #
# Training
# ---------------------------------------------------------------------- #
def check_solves(specs: List[dict], passes: List[dict], pinned: Dict[str, float]):
    """``(attempted, errors)``: every solve must be proven optimal at the pinned cost."""
    from instances import cost_matches, instance_key

    errors, attempted = [], 0
    for number, solve_pass in enumerate(passes):
        for spec, solve in zip(specs, solve_pass["solves"]):
            attempted += 1
            key = instance_key(spec)
            if not solve["proven_optimal"] or not cost_matches(solve["cost"], pinned[key]):
                errors.append(
                    f"pass {number} {key}: cost {solve['cost']!r} proven={solve['proven_optimal']}"
                    f" but the pinned optimum is {pinned[key]!r}"
                )
    return attempted, errors


def run_training(root: str, seconds: float, trace: bool) -> dict:
    from instances import INSTANCES, instance_key, load_pinned

    specs = INSTANCES
    pinned = load_pinned()
    job = {"mode": "train", "instances": specs, "seconds": seconds, "trace": trace}
    worker = None
    try:
        worker, _, setups = set_up(root, job)
        worker.send("go")
        done = worker.receive(timeout=170)
    finally:
        if worker is not None:
            worker.close()

    attempted, errors = check_solves(specs, done["passes"], pinned)
    plain = [p for p in done["passes"] if not p["traced"]]
    speed = factor(c for p in plain for c in p["calibrations"])
    pass_s = statistics.mean(p["seconds"] for p in plain) * speed
    return {
        "instances": [instance_key(s) for s in specs],
        "passes": done["passes"],
        "setups_s": setups,
        "speed": speed,
        "attempted": attempted,
        "errors": errors,
        "end_to_end": {
            "setup_s": statistics.median(setups["scaled"]),
            "rss_mb": done["rss_mb"],
            "work_per_s": len(specs) / pass_s,
            "latency_ms": 1e3 * pass_s,
        },
        "layers": done["layers"],
    }
