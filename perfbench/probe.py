"""How fast the host runs right now, from a fixed reference computation.

The machine the benchmark was built on shares its cores with other
tenants, and its speed drifts by up to a third over tens of seconds.
The program's time and this probe's time drift together: timed beside a
run of `prove-main-theorem`, the run medians of the program's time varied
by 7.8 % and those of program time / probe time by 2.6 %.  So the timings
are reported at the reference speed, scaled by `host_factor`.  The probe
does not touch toric_exc, so no change to the program can move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median probe on the reference machine (2 vCPUs of an Intel Xeon at
# 2.0 GHz, Python 3.11.7, numpy 2.4.6) while it was quiet.
REFERENCE_S = 0.020

_MATRIX = np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]], dtype=np.int64)


def _once():
    # Interpreted integer arithmetic and int64 numpy kernels, the two
    # kinds of work the program does.
    t0 = time.perf_counter()
    total = 0
    for k in range(150_000):
        total += k * k % 7
    rows = np.arange(300_000, dtype=np.int64).reshape(-1, 3) @ _MATRIX.T
    np.unique(rows[:, 0] % 1000)
    return time.perf_counter() - t0


def sample():
    """Median of three probes, in seconds."""
    return statistics.median(_once() for _ in range(3))


def host_factor(samples):
    """How many times slower than the reference the host ran (1.0: as fast)."""
    return statistics.fmean(samples) / REFERENCE_S
