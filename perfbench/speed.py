"""Machine-speed probe for timing on a shared machine.

On the 2-core shared machine the pool costs were measured on, a fixed 4x4
kernel's time swings between 1x and 2x of its fastest value, in phases that
last tens of seconds; CPU time swings just as much.  Such phases move a 50 s
run by 10-20%.  The probe samples that speed while units run, and each unit's
wall time is scaled by the kernel's speed around it, so times measured in a
slow phase and in a fast one become comparable.  The kernel is independent
of the library, so no change to the library can move it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np


class SpeedProbe:
    """Every PERIOD seconds a SIGALRM handler times a fixed kernel of 4x4
    complex linear algebra, the same kind of work the library does.  The
    handler runs between bytecodes of the main thread, so samples fall
    inside units, evenly in time.  Use as a context manager around the
    timed loop."""

    PERIOD = 0.2
    WINDOW = 1.0        # seconds of samples taken either side of a unit

    def __init__(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        self._a = x @ x.conj().T + 4 * np.eye(4)
        self.stamps = []
        self.samples = []

    def _on_alarm(self, signum, frame):
        a = self._a
        t0 = time.perf_counter()
        for _ in range(40):
            np.linalg.solve(a, np.linalg.cholesky(a) @ a)
        t1 = time.perf_counter()
        self.stamps.append(t1)
        self.samples.append(t1 - t0)

    def __enter__(self):
        self._on_alarm(None, None)          # one sample before any unit runs
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def kernel_s(self, t0, t1):
        """Mean kernel time over the samples taken within WINDOW of the
        interval [t0, t1]; the nearest sample when none falls there."""
        near = [s for ts, s in zip(self.stamps, self.samples)
                if t0 - self.WINDOW <= ts <= t1 + self.WINDOW]
        if near:
            return statistics.fmean(near)
        nearest = min(range(len(self.stamps)), key=lambda i: abs(self.stamps[i] - t1))
        return self.samples[nearest]

    def median_s(self):
        return statistics.median(self.samples)
