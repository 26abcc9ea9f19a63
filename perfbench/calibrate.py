"""The reference kernel that end-to-end times are normalised by.

The benchmark runs on a shared virtual machine whose speed changes by up
to 2x over stretches of seconds to minutes, as other tenants come and go;
CPU time moves with wall time, so neither clock is steady.  The slowdown
is close to uniform over pure-Python work, so the benchmark times this
fixed kernel between trials and reports each time as a multiple of the
kernel's time measured in the same stretch, scaled by NOMINAL_S: the values
read as times on a host where the kernel takes NOMINAL_S.

The kernel is the same kind of work as the package's hot paths (GF(2^5)
log/exp multiplication through method calls, a Lagrange-style product
loop, bit rows built, packed and compared) but shares no code with it, so
no change to the package moves it.  It must never change: every recorded
figure is relative to it.
"""

from __future__ import annotations

import statistics
import time
from typing import List

clock = time.perf_counter

# The kernel's median time on a quiet 2-vCPU Xeon virtual machine.
NOMINAL_S = 150e-6
# Minimum wall time between two kernel samples inside a block of trials.
EVERY_S = 0.005


class _Field:
    """GF(2^5) with x^5 + x^2 + 1, by log/exp tables."""

    def __init__(self):
        exp, log = [0] * 62, [0] * 32
        value = 1
        for i in range(31):
            exp[i] = exp[i + 31] = value
            log[value] = i
            value <<= 1
            if value & 32:
                value ^= 0b100101
        self.exp, self.log = tuple(exp), tuple(log)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]


_FIELD = _Field()
_POINTS = [(x, (7 * x) % 31 + 1) for x in range(1, 11)]


def kernel() -> int:
    f = _FIELD
    coeffs = [0] * len(_POINTS)
    for i, (xi, yi) in enumerate(_POINTS):
        basis, denom = [1], 1
        for j, (xj, _) in enumerate(_POINTS):
            if j == i:
                continue
            nxt = [0] * (len(basis) + 1)
            for d, c in enumerate(basis):
                nxt[d + 1] ^= c
                nxt[d] ^= f.mul(c, xj)
            basis = nxt
            denom = f.mul(denom, xi ^ xj)
        for d, c in enumerate(basis):
            coeffs[d] ^= f.mul(yi, f.mul(denom, c))
    rows = [[(c >> b) & 1 for b in range(5)] for c in coeffs]
    packed = [sum(bit << b for b, bit in enumerate(row)) for row in rows]
    if packed != coeffs:
        raise AssertionError("reference kernel is inconsistent")
    return sum(packed)


_EXPECTED = kernel()


class RefClock:
    """Kernel samples taken through a run, and the time they took."""

    def __init__(self):
        self.samples: List[float] = []
        self.spent_s = 0.0
        self._last = clock()

    def sample(self) -> float:
        t0 = clock()
        value = kernel()
        t1 = clock()
        if value != _EXPECTED:
            raise AssertionError("reference kernel gave another result")
        self.samples.append(t1 - t0)
        self.spent_s += t1 - t0
        self._last = t1
        return t1 - t0

    def median_of(self, count: int) -> float:
        """Median of `count` fresh samples."""
        return statistics.median(self.sample() for _ in range(count))

    def between_trials(self, _trial=None) -> None:
        """Take a sample when EVERY_S has passed since the last one."""
        if clock() - self._last >= EVERY_S:
            self.sample()
