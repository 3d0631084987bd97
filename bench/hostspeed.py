"""How fast the host runs right now, from a fixed reference kernel.

The shared machine the benchmark was defined on (2 vCPUs under KVM) runs
compute-bound code either in a fast mode or about 1.45x slower, in phases
of a fraction of a second to tens of seconds, whatever this process does.
A run's wall time therefore follows the share of slow time it happened to
get, and ten runs of the same code spread by up to a third of their median.

``measure.py`` runs ``kernel`` right before every round and around every
set-up sample it times, and reports each timed interval at nominal host
speed::

    t_nominal = t_measured * NOMINAL_KERNEL_S / kernel_s

where ``kernel_s`` is the median of the ``NEAREST`` kernel times closest to
the interval, half before it and half after.  The kernel is a tiny numpy MLP training step of the same
shape and instruction mix as a slimfl local step (small matmuls, element-
wise ops and the Python calls between them).  It is the benchmark's own
code, never slimfl's, so no change to the program moves it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# The kernel's time in the host's fast mode on the machine the benchmark
# was defined on (2 vCPUs under KVM, numpy 2.4.6, scipy-openblas, one BLAS
# thread).  It only sets the scale: there, nominal times read as the times
# of the fast mode.
NOMINAL_KERNEL_S = 1.0e-3
# kernel times whose median normalises one interval: for a round, the two
# runs before it and the two after it
NEAREST = 4
# training steps per kernel run, and untimed steps before it that bring its
# data back into the caches the program just used
REPS = 26
WARM_REPS = 4

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((64, 64))
_XT = _X.T.copy()
_Y = np.eye(10)[_rng.integers(0, 10, size=64)] / 64
_W1 = _rng.standard_normal((64, 32)) * 0.1
_W2 = _rng.standard_normal((32, 10)) * 0.1
# every array is preallocated, so the kernel allocates no array memory and
# its time does not depend on the state of the program's heap
_w1, _w2 = np.empty_like(_W1), np.empty_like(_W2)
_h, _z, _zmax = np.empty((64, 32)), np.empty((64, 10)), np.empty((64, 1))
_gh, _gw1, _gw2 = np.empty((64, 32)), np.empty((64, 32)), np.empty((32, 10))
_mask = np.empty((64, 32), dtype=bool)


def kernel(reps: int = REPS) -> float:
    """A fixed amount of work; returns the weight sum so nothing is skipped."""
    np.copyto(_w1, _W1)
    np.copyto(_w2, _W2)
    for _ in range(reps):
        np.matmul(_X, _w1, out=_h)
        np.maximum(_h, 0.0, out=_h)
        np.matmul(_h, _w2, out=_z)
        np.max(_z, axis=1, keepdims=True, out=_zmax)
        np.subtract(_z, _zmax, out=_z)
        np.exp(_z, out=_z)
        np.sum(_z, axis=1, keepdims=True, out=_zmax)
        np.multiply(_zmax, 64.0, out=_zmax)
        np.divide(_z, _zmax, out=_z)
        np.subtract(_z, _Y, out=_z)  # the softmax cross-entropy gradient
        np.matmul(_z, _w2.T, out=_gh)
        np.greater(_h, 0.0, out=_mask)
        np.multiply(_gh, _mask, out=_gh)
        np.matmul(_h.T, _z, out=_gw2)
        np.matmul(_XT, _gh, out=_gw1)
        np.multiply(_gw2, 0.01, out=_gw2)
        np.subtract(_w2, _gw2, out=_w2)
        np.multiply(_gw1, 0.01, out=_gw1)
        np.subtract(_w1, _gw1, out=_w1)
    return float(_w1.sum() + _w2.sum())


class HostSpeed:
    """Kernel times over a run, and the host-speed factor at any moment."""

    def __init__(self):
        self.at: list[float] = []  # perf_counter at the end of each kernel run
        self.kernel_s: list[float] = []
        self.spent = 0.0  # seconds spent in the kernel

    def probe(self) -> None:
        kernel(WARM_REPS)
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.at.append(end)
        self.kernel_s.append(end - start)
        self.spent += end - start

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_KERNEL_S over the median kernel time nearest the interval."""
        mid = (start + end) / 2
        i = bisect.bisect_left(self.at, mid)
        lo = max(0, min(i - NEAREST // 2, len(self.at) - NEAREST))
        window = self.kernel_s[lo:lo + NEAREST]
        return NOMINAL_KERNEL_S / statistics.median(window)

    def nominal(self, start: float, end: float) -> float:
        """Seconds between ``start`` and ``end`` at nominal host speed."""
        return (end - start) * self.factor(start, end)

    def slowdown(self) -> float:
        """Median kernel time over nominal: how slow the host ran on the whole."""
        return statistics.median(self.kernel_s) / NOMINAL_KERNEL_S
