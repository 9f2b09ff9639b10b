"""How fast the processor runs while a step is timed, to take host contention out of CPU times.

On a shared host the same reconfiguration can take 1.6 times the CPU time
it takes a minute later, as other tenants come and go; the slow spells last
from seconds to minutes, so even the median of a whole run moves with them.
A `Probe` therefore runs a fixed kernel when the timed step starts, every
INTERVAL_S of CPU time while it runs (from a profiling-timer signal; a
traced step goes without, so that no kernel run lands in its spans), and
when it ends.  The step's CPU time, less the kernel's, is scaled by the mean
of REFERENCE_S over each kernel time: CPU seconds on a processor as fast as
the reference.  Sampling in CPU time and averaging the inverse slowdown
weighs each spell by the work done in it.

The kernel mixes the kinds of work the program does, interpreted loops over
dicts and floats and small sparse solves, and calls nothing in `dnr`, so a
change to the program cannot change the yardstick.
"""
from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

# CPU seconds of one kernel() on a 2-vCPU Intel Xeon VM in its uncontended
# spells; it only fixes the unit of the scaled times
REFERENCE_S = 0.008
INTERVAL_S = 0.25  # a probe costs about 4% of the step it measures

_N = 64
_MATRIX = sparse.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(_N, _N), format="csc")
_RHS = np.ones(_N)


def kernel() -> float:
    """CPU seconds of a fixed piece of work."""
    start = time.thread_time()
    table: dict[int, float] = {}
    total = 0.0
    for i in range(15_000):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0.0) + 0.5 * i
        total += math.sqrt(table[key] % 7.0)
    for _ in range(75):
        x = spsolve(_MATRIX, _RHS)
        total += float(np.abs(_MATRIX @ x - _RHS).max())
    return time.thread_time() - start


class Probe:
    """Samples the kernel around and through a timed step; see the module docstring."""

    def __init__(self, periodic: bool = True) -> None:
        self.periodic = periodic
        self.samples: list[float] = []
        self._spent = 0.0  # CPU seconds of the kernel runs after the first

    def clock(self) -> float:
        """CPU seconds of this thread, less the kernel runs inside the probe.

        The thread's clock, because the process-wide one ticks in
        milliseconds while a profiling timer is armed.
        """
        return time.thread_time() - self._spent

    def scale(self) -> float:
        """Factor that turns `clock` seconds measured inside the probe into reference seconds."""
        return statistics.fmean(REFERENCE_S / s for s in self.samples)

    def _sample(self, signum=None, frame=None) -> None:
        start = time.thread_time()
        self.samples.append(kernel())
        self._spent += time.thread_time() - start

    def __enter__(self) -> Probe:
        self.samples.append(kernel())
        if self.periodic:
            self._previous = signal.signal(signal.SIGPROF, self._sample)
            signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.periodic:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, self._previous)
        self._sample()
