"""Host-speed calibration: fixed numpy and scipy work that never calls symmlu.

The host this benchmark runs on is shared.  Its speed swings by up to 2x in
phases of about a second, and its typical speed shifts by up to 1.8x for
minutes at a time; both move every call in a run alike.  The benchmark
therefore times four fixed kernels between its operations, of the kinds of
work the library does: interpreted Python, many small numpy products, a
scipy Nelder-Mead descent and a dense BLAS product.  A kernel call's speed
factor is REFERENCE_S / its time, where REFERENCE_S is the kernel's fastest
call on an unloaded host (an Intel Xeon at 2.0 GHz, one BLAS thread), so
a time multiplied by the factor reads as a time on that host.

- local(t0, latency) is the mean factor of the kernel calls nearest to a
  call's midpoint, for calls short against the phases of the host's speed.
- run_factor() is the geometric mean over kernels of the factor of their
  median call, for calls that span many phases.

Changing the library never changes these kernels, so the factors carry host
speed only.
"""
from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np
from scipy.optimize import minimize

# Fastest call of each kernel on the unloaded host, in seconds.
REFERENCE_S = {"python": 0.00294, "small_numpy": 0.00315, "nelder_mead": 0.00562, "blas": 0.00299}
# Seconds of operations between two kernel calls.
INTERVAL_S = 0.05
# Kernel calls around a call's midpoint that give its local factor.
NEAREST = 4

_rng = np.random.default_rng(12345)
_SMALL = [_rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8)) for _ in range(8)]
_TARGET = _SMALL[0] @ _SMALL[1] @ _SMALL[0].conj().T
_DENSE = _rng.standard_normal((128, 128)) + 1j * _rng.standard_normal((128, 128))


def _python():
    counts = {}
    for i in range(26000):
        key = (i * 7919) & 1023
        counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items())[:4]


def _small_numpy():
    m = _SMALL[0]
    for i in range(500):
        m = _SMALL[i & 7] @ m
        m = m / np.linalg.norm(m)
    return m


def _objective(x):
    c, s = math.cos(x[0]), math.sin(x[0])
    g = np.array([[c, -s * np.exp(1j * x[1])], [s * np.exp(-1j * x[2]), c]])
    big = np.kron(np.kron(g, g), g)
    return float(np.linalg.norm(big @ _SMALL[1] @ big.conj().T - _TARGET))


def _nelder_mead():
    return minimize(_objective, np.array([0.3, 0.2, 0.1]), method="Nelder-Mead", options={"maxfev": 100})


def _blas():
    m = _DENSE
    for _ in range(8):
        m = (_DENSE @ m) / 128.0
    return m


KERNELS = {"python": _python, "small_numpy": _small_numpy, "nelder_mead": _nelder_mead, "blas": _blas}


class Calibration:
    """Kernel calls over a run: their times and the speed factors they give."""

    def __init__(self):
        self.times = {name: [] for name in KERNELS}
        self.mids: list = []  # midpoint of each kernel call, in time.perf_counter() seconds
        self.factors: list = []
        self._due = 0.0

    def sample(self):
        name = list(KERNELS)[len(self.mids) % len(KERNELS)]
        t0 = time.perf_counter()
        KERNELS[name]()
        dt = time.perf_counter() - t0
        self.times[name].append(dt)
        self.mids.append(t0 + dt / 2)
        self.factors.append(REFERENCE_S[name] / dt)

    def sample_round(self):
        for _ in KERNELS:
            self.sample()

    def after_op(self, latency: float):
        """Call a kernel once INTERVAL_S of operation time has gone by since the last one."""
        self._due += latency
        if self._due >= INTERVAL_S:
            self._due = 0.0
            self.sample()

    def local(self, t0: float, latency: float) -> float:
        """Mean factor of the NEAREST kernel calls around the midpoint of a call."""
        j = bisect.bisect(self.mids, t0 + latency / 2)
        lo = min(max(0, j - NEAREST // 2), max(0, len(self.mids) - NEAREST))
        return statistics.mean(self.factors[lo : lo + NEAREST])

    def run_factor(self) -> float:
        """Geometric mean over kernels of the factor of their median call."""
        logs = [math.log(REFERENCE_S[k] / statistics.median(t)) for k, t in self.times.items()]
        return math.exp(sum(logs) / len(logs))
