"""The host's speed, measured while the workload runs, to scale its times.

The benchmark runs on a few cores of a shared host, whose speed changes by
a third or more over seconds to minutes as other jobs come and go.  A
median over many operations does not remove such a change, because every
operation of a run sees it.  So a fixed calibration kernel, which does not
use mhbl, is timed throughout the run: a SIGALRM handler runs it every
``INTERVAL_S`` seconds, between two bytecodes of whatever the workload is
doing.  Each operation's time, less the time spent in the handler, is then
multiplied by the mean of ``REFERENCE_S`` / (kernel time) over the samples
taken during that operation: the time the operation would take on a host
where the kernel takes ``REFERENCE_S``.  The samples are evenly spaced, so
the mean weights each stretch of the operation by its length, also when
the host's speed changes during a long operation.  A change to mhbl changes
the operation's time but not the kernel's, so it moves the scaled time in
full.

The kernel mixes what the workloads spend their time on: bytecode, numpy
calls on small arrays and batched LAPACK solves.  Its data is small enough
to stay in cache, so the workload's own memory traffic hardly changes it.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Tuple

import numpy as np

#: kernel time, in seconds, of the reference host the times are scaled to
REFERENCE_S = 0.004
#: seconds between two kernel samples during a run
INTERVAL_S = 0.1
#: samples that scale an operation too short to contain this many
MIN_SAMPLES = 3

_rng = np.random.default_rng(20180317)
_small = _rng.standard_normal(64)
_mid = _rng.standard_normal(4096)
_mats = _rng.standard_normal((32, 6, 6)) + 6.0 * np.eye(6)
_rhs = _rng.standard_normal((32, 6, 1))


def kernel() -> float:
    """A fixed piece of work of about 4 ms; returns a value so that
    nothing is optimised away."""
    s = 0.0
    for i in range(8000):
        s += (i % 7) * 0.5
    a = _small
    for _ in range(300):
        a = np.sin(a) * 0.5 + a[::-1] * 0.25
    for _ in range(24):
        x = np.linalg.solve(_mats, _rhs)
        y = np.exp(_mid * 1e-3) + _mid * _mid
    return s + float(a[0] + x[0, 0, 0] + y[0])


def kernel_time(repeats: int = 15) -> float:
    """Median time of ``repeats`` kernel runs, taken now."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Sampler:
    """Times the kernel every ``INTERVAL_S`` seconds while active.

    ``samples`` holds (start, kernel seconds); ``spent`` is the total time
    spent in the handler, which the caller subtracts from its timings.
    """

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.samples: List[Tuple[float, float]] = []
        self.spent = 0.0
        self._busy = False
        self._old = None

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that arrives during the kernel is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append((t0, t1 - t0))
        self.spent += time.perf_counter() - t0
        self._busy = False

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def factor(self, start: float, end: float) -> float:
        """Scale factor to the reference host for [start, end]: the mean of
        REFERENCE_S / (kernel time) over the samples taken in it, or over
        the last MIN_SAMPLES before ``end`` if it holds fewer."""
        inside = [d for t, d in self.samples if start <= t <= end]
        if len(inside) < MIN_SAMPLES:
            inside = [d for t, d in self.samples if t <= end][-MIN_SAMPLES:]
        return statistics.fmean(REFERENCE_S / d for d in inside)
