"""Scale wall times on a shared machine to reference seconds.

On a shared host the same pure-Python pass runs up to 40% slower when
neighbours load the core, and that state changes from second to second.
``SpeedSampler`` times a fixed calibration loop every ``INTERVAL_S`` from
a timer signal while the benchmark runs, so the samples follow the
machine's speed during the measured work itself; the handler's own time
is excluded from every interval read off ``SpeedSampler.clock``.  An
interval is then scaled to the speed at which one loop takes
``REFERENCE_S``.  The loop is the benchmark's own frozen copy of the
library's hot operation (a sparse polynomial product over exact
rationals), so a change to the library moves the scaled time exactly as
it moves the wall time.
"""

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
# seconds one calibration loop takes on the machine the baseline was measured on
REFERENCE_S = 0.001

_FACTOR = {(("x", i), ("y", j)): Fraction(i + 1, j + 2) for i in range(6) for j in range(2)}


def _loop():
    out = {}
    for m1, c1 in _FACTOR.items():
        for m2, c2 in _FACTOR.items():
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            m = tuple(sorted(exps.items()))
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return out


def measure():
    """Seconds one calibration loop takes now."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def reference_seconds(elapsed, loop_times):
    """``elapsed`` seconds scaled by the mean of loop times taken meanwhile."""
    return elapsed * REFERENCE_S / statistics.fmean(loop_times)


class SpeedSampler:
    """Samples the calibration loop from SIGALRM while in a ``with`` block."""

    def __init__(self):
        self.samples = []
        self._spent = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        _loop()
        took = time.perf_counter() - t0
        self.samples.append(took)
        self._spent += took

    def clock(self):
        """perf_counter minus the time spent sampling."""
        while True:
            spent = self._spent
            now = time.perf_counter()
            if spent == self._spent:
                return now - spent

    def scaled(self, elapsed, first_sample):
        """``elapsed`` clock seconds in reference seconds, by the samples
        taken since index ``first_sample`` (one taken now if there are none)."""
        taken = self.samples[first_sample:] or [measure()]
        return reference_seconds(elapsed, taken)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
