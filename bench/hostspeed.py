"""Host speed reference: a fixed kernel timed all through a run, so that the
run's timings can be scaled to one nominal host speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over minutes with other tenants' load.  The drift is in CPU
time as much as in wall time, so no clock of our own process removes it,
and a 30 s run cannot outlast it.  The kernel below is fixed code of the
benchmark (interpreted complex arithmetic, number formatting and parsing,
NumPy array work: the kinds of work the library does), so a change to the
library cannot change how long it takes.  It runs between the timed
steps, about once per ``INTERVAL_S``.  A time measured over an interval is
scaled by ``REF_S`` over the mean of the kernel runs inside the interval
and the nearest one on each side, and then reads in the seconds it would
take on a host that runs the kernel in ``REF_S``.

One kernel run (~25 ms) lands in a fast or a slow phase of its core, and
the phases last a few tenths of a second, so single runs scatter by up to
a factor of two; a mean over several runs follows the host.  The raw
timings are kept beside the scaled ones in the output record.
"""

from __future__ import annotations

import bisect
import cmath
import gc
import math
import statistics
import time

import numpy as np

#: seconds one kernel run takes at the nominal host speed: about the mean
#: of the runs on the machine described in README.md, so that scaled
#: times there read close to the raw ones
REF_S = 0.025
#: one kernel run is due per this many seconds since the last one
INTERVAL_S = 0.5

# The kernel allocates no large block: how fast the allocator serves one
# depends on what the library allocated before, not on the host.
_X = np.linspace(0.0, 1.0, 1 << 18)
_A = np.empty_like(_X)
_B = np.empty_like(_X)


def kernel() -> float:
    acc = 0j
    for i in range(16_000):
        acc += cmath.exp(complex(-i * 1e-4, -0.5)) * math.cos(i * 1e-3)
    text = ",".join(f"{i * 1.000123:.17g}" for i in range(4000))
    acc += sum(float(t) for t in text.split(","))
    np.multiply(_X, 997.0, out=_A)
    np.sin(_A, out=_A)
    _A.sort()
    np.cumsum(_A, out=_B)
    return acc.real + float(_B[-1])


def time_kernel() -> float:
    """Seconds of one kernel run.  The garbage collector is off meanwhile:
    a collection would walk the objects the library left alive."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Kernel run times of one benchmark run, each with the moment it ended."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []   # (perf_counter at end, seconds)

    def sample(self) -> None:
        """Run the kernel once per ``INTERVAL_S`` passed since the last run
        (once if there was none), so the runs cover the time evenly."""
        due = 1
        if self.samples:
            due = int((time.perf_counter() - self.samples[-1][0]) / INTERVAL_S)
        for _ in range(due):
            seconds = time_kernel()
            self.samples.append((time.perf_counter(), seconds))

    def scale(self, start: float, end: float) -> float:
        """Factor that turns seconds timed in [start, end] into nominal
        seconds: ``REF_S`` over the mean of the kernel runs that ended inside
        the interval, the last one before it and the first one after it."""
        times = [t for t, _ in self.samples]
        first = max(bisect.bisect_right(times, start) - 1, 0)
        last = bisect.bisect_left(times, end) + 1
        near = [seconds for _, seconds in self.samples[first:last]]
        if not near:
            raise ValueError("no host-speed sample taken")
        return REF_S / statistics.fmean(near)
