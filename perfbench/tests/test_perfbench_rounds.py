"""Rounds, the traffic gate and host-speed scaling."""

import threading
import time

import pytest

from loadgen import Op, Recorder, Round, rounds_summary
from speed import REFERENCE_S, factor


def test_factor_is_the_mean_speed_relative_to_the_reference():
    assert factor([REFERENCE_S]) == pytest.approx(1.0)
    assert factor([2 * REFERENCE_S]) == pytest.approx(0.5)
    # Speeds 1 and 3: a run spent as long at each averages 2.
    assert factor([REFERENCE_S, REFERENCE_S / 3]) == pytest.approx(2.0)


def test_rounds_count_only_successful_ops_inside_a_round():
    rounds = [Round(0.0, 1.0), Round(2.0, 3.0)]
    ops = [
        Op("predict", 0.1, 0.2, 100, True),    # 100 ms
        Op("predict", 2.1, 2.4, 100, True),    # 300 ms
        Op("predict", 2.5, 2.6, 100, False),   # failed: never counted
        Op("predict", 0.9, 2.1, 100, True),    # straddles a pause: in no round
        Op("chunk", 0.1, 0.2, 100, True),      # another kind
    ]
    summary = rounds_summary(ops, "predict", rounds)
    assert summary["n"] == 2 and summary["rounds"] == 2
    assert summary["samples_per_s"] == pytest.approx(100.0)
    assert summary["mean_ms"] == pytest.approx(200.0)


def test_each_round_is_scaled_by_its_own_speed_and_the_median_is_taken():
    rounds = [Round(0.0, 1.0, speed=1.0), Round(2.0, 3.0, speed=0.5), Round(4.0, 5.0, speed=2.0)]
    ops = [
        Op("predict", 0.1, 0.2, 100, True),    # 100 samples/s, 100 ms at speed 1
        Op("predict", 2.1, 2.4, 100, True),    # at half speed: 200 samples/s, 150 ms
        Op("predict", 4.1, 4.15, 100, True),   # at double speed: 50 samples/s, 100 ms
    ]
    summary = rounds_summary(ops, "predict", rounds)
    assert summary["samples_per_s"] == pytest.approx(100.0)
    assert summary["scaled_samples_per_s"] == pytest.approx(100.0)
    assert summary["scaled_mean_ms"] == pytest.approx(100.0)
    # A round without a successful op has rate zero and no latency.
    idle = rounds_summary(ops[:1], "predict", rounds[:2])
    assert idle["scaled_samples_per_s"] == pytest.approx(50.0)
    assert idle["scaled_mean_ms"] == pytest.approx(100.0)


def test_pause_parks_every_connection_between_operations():
    rec = Recorder()
    busy = threading.Event()
    in_op = []

    def loop():
        rec.join()
        try:
            while rec.gate():
                in_op.append(True)
                busy.set()
                time.sleep(0.01)
                in_op.pop()
        finally:
            rec.leave()

    threads = [threading.Thread(target=loop) for _ in range(2)]
    for thread in threads:
        thread.start()
    busy.wait(5)
    rec.pause()
    assert in_op == []
    time.sleep(0.05)
    assert in_op == []
    rec.resume()
    time.sleep(0.05)
    rec.stop()
    for thread in threads:
        thread.join(5)
    assert not any(thread.is_alive() for thread in threads)
