"""Machine-speed reference for the benchmark.

The machine's speed varies: on the shared 2-vCPU VM this benchmark was
tuned on, a pure-Python loop ran up to 2x slower for tens of seconds at a
time, and large-array numpy work slowed on its own schedule. The
benchmark therefore scales measured times to a nominal speed, measured by
timing a reference kernel that does not use modmult. A kernel's NOMINAL_S
is its time on that VM when it ran fast.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy

SPEED_INTERVAL_S = 0.5


class InterpreterKernel:
    """Big-int arithmetic and small-object allocation in the interpreter."""

    NOMINAL_S = 0.015
    MODULUS = (1 << 127) - 1

    def __call__(self) -> float:
        start = time.perf_counter()
        x, table = 1, {}
        for j in range(40_000):
            x = (x * 6364136223846793005 + j) % self.MODULUS
            table[j & 255] = (x, j)
        return time.perf_counter() - start


class MemoryKernel:
    """Two streaming passes over a 64 MB array: larger than L2 and most of
    the shared L3, like OptimalSearch's edge arrays. The array adds 64 MB
    to the workload's peak RSS."""

    NOMINAL_S = 0.016

    def __init__(self) -> None:
        self.buffer = numpy.ones(8 << 20)

    def __call__(self) -> float:
        start = time.perf_counter()
        self.buffer += 1.0
        self.buffer += 1.0
        return time.perf_counter() - start


class Speedometer:
    """Samples a reference kernel on entry and on SIGALRM every
    SPEED_INTERVAL_S while active."""

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)

    def _sample(self, *_) -> None:
        self.samples.append((time.perf_counter(), self.kernel()))

    def __enter__(self) -> "Speedometer":
        self._sample()
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_INTERVAL_S, SPEED_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def nominal_seconds(self, start: float, seconds: float) -> float:
        """Wall time from `start`, less the samples taken inside it, scaled
        by their mean kernel time (and the last one before it) to nominal."""
        inside = [k for t, k in self.samples if start <= t <= start + seconds]
        before = [k for t, k in self.samples if t < start][-1:]
        return (seconds - sum(inside)) * self.kernel.NOMINAL_S / statistics.mean(before + inside)
