"""Correction for the machine's drifting speed, from a fixed reference kernel.

On a shared host the same codec op can take 2x longer for tens of seconds at
a time, in CPU time as much as in wall time, because other tenants contend
for the cores and caches. Timing a fixed kernel between ops tracks that
drift: the kernel slows down with the codec. Each op's time is scaled by
NOMINAL_S / (mean of the kernel times just before and just after it), which
gives the time the op would take on a machine where the kernel takes
NOMINAL_S. On a 2-core Xeon host this cut the run-to-run spread of 3-second
windows of decode times from 19.5% to 4.2% (coefficient of variation).

Each reading starts with a garbage collection, so objects the codec left
behind slow neither the kernel nor, through the scale, the codec's times.

The kernel mimics the codec's hot loop (a 2x2 mean filter and a clipped
affine map on 8x8 blocks) but is the benchmark's own code, so no change to
the codec changes it. The corpus build in set-up is whole-image numpy work,
which slows only about half as much as that kernel when the host slows; it
is timed against `corpus_gauge`, whose kernel is a fixed corpus build.
"""

from __future__ import annotations

import functools
import gc
import time
from typing import Callable

import numpy as np

from . import corpus

NOMINAL_S = 0.030  # kernel time in a quiet period on a 2-core Xeon host
CORPUS_NOMINAL_S = 0.012  # corpus kernel time in the same period
_SIDE = 256
_BLOCK = 8


def reference_kernel(buf: np.ndarray) -> float:
    acc = 0.0
    for y in range(0, _SIDE, _BLOCK):
        for x in range(0, _SIDE, _BLOCK):
            a = buf[y : y + _BLOCK, x : x + _BLOCK]
            d = (a[0::2, 0::2] + a[0::2, 1::2] + a[1::2, 0::2] + a[1::2, 1::2]) * 0.25
            acc += float(np.clip(0.5 * (d - d.mean()) + 3.0, 0.0, 255.0).sum())
    return acc


class SpeedGauge:
    """Times a kernel (by default the reference kernel) on demand; each
    reading also yields a scale."""

    def __init__(self, kernel: Callable[[], object] | None = None, nominal_s: float = NOMINAL_S) -> None:
        buf = np.random.default_rng(0).random((_SIDE, _SIDE)) * 255.0
        self._kernel = kernel or functools.partial(reference_kernel, buf)
        self.nominal_s = nominal_s
        self.readings: list[float] = []
        self._last = self._measure()

    def _measure(self) -> float:
        gc.collect()
        start = time.perf_counter()
        self._kernel()
        elapsed = time.perf_counter() - start
        self.readings.append(elapsed)
        return elapsed

    def scale(self) -> float:
        """Factor for the interval since the previous reading: the nominal
        time over the mean of that reading and a fresh one."""
        before, self._last = self._last, self._measure()
        return self.nominal_s / ((before + self._last) / 2.0)


def _corpus_kernel() -> None:
    corpus.natural_image(256, 256, 0)
    corpus.scene_image(256, 256, 0)


def corpus_gauge() -> SpeedGauge:
    return SpeedGauge(_corpus_kernel, CORPUS_NOMINAL_S)
