"""Machine-speed probe: scales wall time to a reference speed.

On a shared 2-core cloud VM (Python 3.11, numpy 2.4) the same computation
ran up to 1.5x slower for stretches of 10-30 s, with no steal time and no
change in CPU time accounting to show it.  Medians within a run
cannot remove a slowdown that lasts the whole run, so every end-to-end time
is scaled by the machine's speed measured during that very interval.

While a probe is active, a SIGALRM handler runs a fixed reference kernel
(Python dicts, exact fractions and small numpy products, the mix tubeplan
itself runs) every ``PERIOD_S`` seconds, in the main thread, between two
bytecodes of whatever is running.  An interval's scaled time is its wall
time without the kernel runs inside it, times ``REF_S`` over the mean kernel
time of the samples in and around it.  Interleaved this way, the spread of
repeated timings of word checks fell from 23 % to 5 % and of FHOCP solves
from 15 % to 4 % (quartile distance over median, 10-batch medians).
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

import numpy as np

PERIOD_S = 0.25
REF_S = 0.006            # kernel time that defines reference speed

_A = np.arange(9.0).reshape(3, 3)


def reference_kernel():
    """Fixed work of about 6 ms; never changes, or old figures lose meaning."""
    counts = {}
    total = Fraction(0)
    v = np.zeros(3)
    for i in range(600):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
        total += Fraction(i % 7, 2)
        v = v + _A @ np.full(3, i % 5) * 1e-3
    return total, v


class SpeedProbe:
    def __init__(self):
        self.starts = []
        self.ends = []
        self._previous = None

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        reference_kernel()
        self.ends.append(time.perf_counter())
        self.starts.append(t0)

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def speed(self) -> float:
        """Mean speed over all samples, as a share of reference speed."""
        return REF_S * len(self.starts) / (sum(self.ends) - sum(self.starts))

    def _kernel(self):
        starts = np.asarray(self.starts)
        kernel = np.asarray(self.ends) - starts
        return starts, np.concatenate([[0.0], np.cumsum(kernel)])

    def time_inside(self, start, end):
        """Kernel time inside each interval ``[start[i], end[i]]``."""
        starts, cum = self._kernel()
        return cum[np.searchsorted(starts, end)] - cum[np.searchsorted(starts, start)]

    def scale(self, intervals):
        """``(own, scaled)`` seconds for each ``(start, end)`` interval.

        ``own`` is the wall time without the kernel runs inside the
        interval; ``scaled`` is ``own`` at reference speed.  Intervals
        must lie inside the probe's active period.
        """
        iv = np.asarray(intervals, dtype=float).reshape(-1, 2)
        starts, cum = self._kernel()
        first = np.searchsorted(starts, iv[:, 0])      # first sample inside
        after = np.searchsorted(starts, iv[:, 1])      # first sample after
        own = iv[:, 1] - iv[:, 0] - (cum[after] - cum[first])
        lo = np.maximum(first - 1, 0)                  # plus one neighbour
        hi = np.minimum(after + 1, len(starts))        # on either side
        speed = REF_S * (hi - lo) / (cum[hi] - cum[lo])
        return own, own * speed
