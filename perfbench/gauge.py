"""Host speed gauge.

On a shared host the speed of identical work drifts by tens of percent
over seconds to minutes, far more than the changes the benchmark is meant
to see.  The gauge runs a fixed reference kernel, which does not touch
lipcut, every ``EVERY_S`` seconds of the closed loop (between units and,
through the oracle proxy, between oracle calls), and records how long each
run of it took.  A measured interval is then reported at the reference
speed: the samples inside it are taken out, which leaves pieces, and each
piece counts as

    piece * NOMINAL_S / (median kernel time of the WINDOW samples nearest it)

so a slow spell of the host slows the kernel as well and cancels out,
while a change in lipcut moves the interval and not the kernel.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

# About the median kernel time on the 2-vCPU host the baseline was
# measured on (Python 3.11.7, numpy 2.4.6, BLAS on one thread), where it
# ranged over 0.9-1.6 ms.  It only sets the scale of the reported times.
NOMINAL_S = 0.0012
EVERY_S = 0.05
WINDOW = 21

_X = np.linspace(-1.0, 1.0, 256)
_P = _X.reshape(64, 4)
_Q = np.stack(np.meshgrid(np.linspace(0.0, 1.0, 64), np.linspace(0.0, 1.0, 32)), axis=-1).reshape(-1, 2)


def kernel() -> float:
    """Fixed work of the kind lipcut does per branch-and-bound wave: small
    numpy calls, a per-cut membership test over a batch of points, and
    interpreted float arithmetic; about 1 ms."""
    s = 0.0
    for i in range(16):
        y = np.sin(3.0 * _X + i) * _X
        s += float(y[np.abs(y) < 0.5].sum())
        d = np.max(np.abs(_P - _P[i % 64]), axis=1)
        s += float(d[np.argsort(d)[:8]].sum())
    ok = np.ones(len(_Q), dtype=bool)
    for i in range(8):
        ok &= np.linalg.norm(_Q - _Q[i], axis=1) >= 0.05
    s += float(ok.sum())
    for i in range(1500):
        s += (i * 0.37) % 1.0
    return s


class Gauge:
    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.last = perf_counter()

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = perf_counter()
            kernel()
            end = perf_counter()
            self.starts.append(start)
            self.ends.append(end)
            self.last = end

    def tick(self) -> None:
        """One sample if EVERY_S seconds have passed since the last."""
        if perf_counter() - self.last >= EVERY_S:
            self.sample()

    def speed(self, t: float) -> float:
        """Median kernel time of the WINDOW samples nearest t."""
        n = len(self.starts)
        first = min(max(0, bisect_left(self.starts, t) - WINDOW // 2), max(0, n - WINDOW))
        ends = np.asarray(self.ends[first:first + WINDOW])
        return float(np.median(ends - np.asarray(self.starts[first:first + WINDOW])))

    def scaled(self, a: float, b: float) -> float:
        """The interval [a, b] at the reference speed.  Intervals are read
        outside samples, so a sample is wholly inside or wholly outside."""
        i = bisect_left(self.starts, a)
        j = bisect_right(self.ends, b)
        edges = [a] + [t for k in range(i, j) for t in (self.starts[k], self.ends[k])] + [b]
        return NOMINAL_S * sum((hi - lo) / self.speed(0.5 * (lo + hi))
                               for lo, hi in zip(edges[::2], edges[1::2]))

