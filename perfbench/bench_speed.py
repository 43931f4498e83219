"""Host-speed probe: a fixed computation timed between operations.

The benchmark runs on a shared host whose speed drifts by a quarter or
more over minutes, with CPU time tracking wall time, so the drift comes
from outside the process.  A run therefore times, between its
operations, a fixed reference computation of the same kind as the
library's hot loops: envelope sifting of a fixed 600-sample signal with
scipy cubic splines.  Its time moves with the host, not with stvs.

Every timed end-to-end metric is reported at the reference speed: a
measured time is multiplied by ``factor()``, the reference probe time
over the run's median probe time, and a rate is divided by it.  A
change to stvs moves the scaled figures exactly as much as the raw
ones; a host that is uniformly slower for a while moves neither.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.interpolate import make_interp_spline

# Median probe time on the host the benchmark was written on (Python
# 3.11, numpy 2.4, scipy 1.17, 2 vCPUs): scaled figures read as ms on a
# host where one probe takes this long.
REFERENCE_S = 2.5e-3

_X = np.linspace(0.0, 3.0, 600)
_Y = np.sin(2 * np.pi * 4.8 * _X) * np.exp(-0.4 * _X) + 0.3 * np.sin(2 * np.pi * 1.1 * _X)
_SIFTS = 8


def kernel() -> np.ndarray:
    """Eight sifting steps: extrema, upper and lower spline envelopes."""
    y = _Y.copy()
    for _ in range(_SIFTS):
        d = np.diff(y)
        peaks = np.flatnonzero((d[:-1] > 0) & (d[1:] <= 0)) + 1
        troughs = np.flatnonzero((d[:-1] < 0) & (d[1:] >= 0)) + 1
        upper = make_interp_spline(_X[peaks], y[peaks], k=3)(_X)
        lower = make_interp_spline(_X[troughs], y[troughs], k=3)(_X)
        y = y - 0.5 * (upper + lower)
    return y


class SpeedProbe:
    """Probe samples of one phase of a run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.total_s = 0.0  # time spent probing, to take out of wall times

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = time.perf_counter()
            kernel()
            dt = time.perf_counter() - t0
            self.samples.append(dt)
            self.total_s += dt

    def factor(self) -> float:
        """Multiply a measured time by this to state it at reference speed."""
        return REFERENCE_S / statistics.median(self.samples)
