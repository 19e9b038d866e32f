"""Host speed calibration, so timings can be put on one scale.

On a shared two-vCPU Intel Xeon virtual machine the speed of a core drifts
by up to 1.7x over seconds to minutes: the same Python loop took 15 ms in
one stretch and 26 ms in the next, numpy calls slowed by the same factor,
and process CPU time tracked wall time, so neither CPU time nor a best or
median slice removes it.  The benchmark therefore times a fixed
calibration kernel many times during a run, between stretches of measured
work and on the same core, and scales the measured times by the host's
speed over those calibrations: every time is reported as it would read on
a host that runs the kernel in ``REFERENCE_S``.  A slower program is
slower against the same kernel, so a regression shows at its full size.

Serving traffic runs in rounds of half a second; each round is scaled by
the calibrations just before and after it and a run reports the median
over its rounds.  Over five runs of 25 s each this spread (IQR over
median) 2.9-4.6% where one factor for the whole run spread 4.1-5.2%: the
speed also flickers within seconds, and calibrations next to the traffic
follow it more closely.  A training solve cannot stop for calibrations, so
a :class:`Sampler` times the kernel from a timer signal while it runs and
the solve time is scaled by the mean speed over those samples.

Code of different kinds slows down by different amounts: over a minute of
interleaved timings, small numpy calls swung twice as much (in log time) as
one LDA-FP solve, and pure interpreter loops about as much as it.  The
kernel is therefore mostly interpreter work with a sixth small numpy
calls, a mix whose time tracked a 0.4 s ``train_lda_fp`` solve with slope
1.05.
"""

from __future__ import annotations

import signal
import time
from typing import Iterable, List

import numpy as np

#: Nominal kernel time that scaled timings refer to.
REFERENCE_S = 0.010
#: Kernel runs per calibration.
REPEATS = 5
#: Seconds between two samples of a :class:`Sampler`.
SAMPLE_INTERVAL_S = 0.25

_MATRIX = np.linspace(-0.5, 0.5, 64).reshape(8, 8)


def kernel() -> float:
    x = _MATRIX
    acc = 0.0
    for i in range(400):
        x = np.tanh(x @ _MATRIX + 0.25)
        acc += float(x[i % 8, 0])
    total = 0
    for i in range(120_000):
        total += (i * i) % 7
    return acc + total


def calibrate(repeats: int = REPEATS) -> List[float]:
    """Seconds of each of ``repeats`` kernel runs on the calling thread's core.

    Every run is kept: the speed flips between a fast and a slow state, and
    a median of a few runs would report the majority state only.
    """
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - started)
    return times


def factor(calibrations: Iterable[float]) -> float:
    """The host's mean speed relative to the reference over ``calibrations``.

    Divide a measured rate by it, multiply a measured time by it.
    """
    speeds = [REFERENCE_S / c for c in calibrations]
    return sum(speeds) / len(speeds)


class Sampler:
    """Times the kernel every ``interval`` seconds from a ``SIGALRM`` handler.

    Made for one long single-threaded computation on the main thread,
    which cannot stop for calibrations between its steps: the samples fall
    evenly over its run, on its core.  ``spent`` is the handlers' own time,
    for the caller to take out of what it measured around the computation.
    """

    def __init__(self, interval: float = SAMPLE_INTERVAL_S) -> None:
        self.interval = interval
        self.samples: List[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - started)
        self.spent += time.perf_counter() - started

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
