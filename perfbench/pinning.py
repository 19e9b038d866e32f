"""Thread limits and CPU pinning for the benchmark's two processes.

OpenBLAS starts one thread per core and lets idle threads spin, so a
process that only multiplies small matrices keeps both cores of a
two-core host busy and the load generator and the program under test
preempt each other.  Every benchmark process therefore runs with one
BLAS/OpenMP thread.  A fixed Python loop timed for 30 s on a shared
two-vCPU Xeon virtual machine spread 16-25 ms (10th-90th percentile) with
the default thread pools and 15-22 ms pinned and single-threaded.

The load generator and the worker are pinned to the same CPU.  The host
speed calibrations of ``speed.py`` must run on the core that does the
measured work, and the two cores of that machine change speed
independently (timed side by side, their speeds correlated at 0.29 over
0.4 s slices).  Serving traffic is closed loop, so the generator and the
server mostly take turns on the core anyway.
"""

from __future__ import annotations

import os

SINGLE_THREADED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: The worker's environment on top of that: a fixed string-hash seed, so
#: dict and set layouts do not differ from one run to the next.
WORKER_ENV = dict(SINGLE_THREADED, PYTHONHASHSEED="0")


#: Usable CPUs when the load generator started, before it pinned itself.
CPUS = sorted(os.sched_getaffinity(0))


def pin(pid: int) -> int:
    """Pin ``pid`` to the benchmark's CPU; returns it."""
    os.sched_setaffinity(pid, {CPUS[0]})
    return CPUS[0]
