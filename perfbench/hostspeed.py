"""Host speed, read from a fixed reference kernel timed between items.

On a shared 2-vCPU virtual machine the speed changes by tens of percent
in phases a few seconds long, and drifts between runs. Process CPU time
follows wall time there, so the swings are not time stolen from the
process but a slower CPU. A fixed piece of work timed right beside the
measured work slows down with it: over eight 25 s runs of
frame-kinematics on that machine, the mean item time and the kernel's
mean time correlated at 0.97.

The kernel does the kind of work the library does in its scalar paths:
small objects with custom hashing, dict updates, factorials and square
roots, complex 2x2 products and a small einsum. It does not call
poincare_cgc, so a change to the library does not change the kernel.

A measured span of ``seconds``, with kernel time ``kernel_s`` taken
around it, is scaled to the nominal host, on which the kernel takes
``NOMINAL_S``:

    scaled = seconds * NOMINAL_S / kernel_s
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Seconds the kernel takes on the nominal host. It is a fixed unit, about
# what the kernel took on the 2-vCPU machine the benchmark was written on.
NOMINAL_S = 0.005


class _Label:
    __slots__ = ("twice",)

    def __init__(self, twice):
        self.twice = twice

    def __eq__(self, other):
        return isinstance(other, _Label) and other.twice == self.twice

    def __hash__(self):
        return hash(self.twice)

    def __add__(self, other):
        return _Label(self.twice + other.twice)


_U = np.array([[0.8, 0.3 + 0.1j], [-0.3 + 0.1j, 0.8]])
_T = np.arange(16.0).reshape(2, 2, 2, 2) * (1 + 0.5j)


def kernel() -> float:
    """The fixed reference work; returns a number so that nothing is skipped."""
    acc = 0.0
    counts = {}
    for i in range(300):
        label = _Label(i % 7) + _Label((i * 3) % 5)
        counts[label] = counts.get(label, 0) + 1
        for k in range(6):
            acc += float(np.sqrt((k + 1.0) * math.factorial(k) / math.factorial(k + 2)))
        m = _U @ _U.conj().T
        acc += abs(complex(m[0, 1])) + 1e-9 * float(np.einsum("ab,abcd->", m.real, _T).real)
        acc += math.cos(i * 0.01) * math.sinh(0.001 * i)
    return acc + len(counts)


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def settled_kernel_time() -> float:
    """Median of five kernel times after one untimed warm-up call."""
    kernel()
    return statistics.median(time_kernel() for _ in range(5))


def scale(seconds, kernel_s) -> float:
    """``seconds`` measured where the kernel took ``kernel_s``, on the nominal host."""
    return seconds * NOMINAL_S / kernel_s
