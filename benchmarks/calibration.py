"""Host-speed calibration: a fixed pure-Python kernel timed between commands.

The benchmark shares a 2-CPU host whose speed drifts by 20-35 % over
minutes, which moves every command's wall time together.  The kernel does
the same kinds of work as ``mchern`` but never calls it, so no change to
the program can change its time.  A normalised time is a wall time scaled by
``REFERENCE_S`` over the kernel's recent time: what the command would
have taken on a host where the kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.015  # about the kernel's median time on the 2-CPU host the bounds were set on
WINDOW = 5  # normalise by the median of this many most recent kernel times
INTERVAL_S = 0.25  # time the kernel at most this often


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel.

    The kernel mixes the workloads' kinds of work: a bigint polynomial
    product, Fraction arithmetic, dict and tuple building, tuple copying
    like ``SurfaceModel.apply_event``, and compact and indented JSON output.
    Each part alone tracks the host's drift for some commands only; the
    mix tracks it for all.  The cyclic garbage collector is paused while
    it runs: the kernel makes no cycles, and a collection of the previous
    command's garbage would otherwise be charged to the host's speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        a = [(7 ** 29 + 3 * i) * (i % 5 + 1) for i in range(110)]
        b = [5 ** 31 - 11 * i for i in range(110)]
        out = [0] * 219
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        acc = Fraction(0)
        for i in range(1, 300):
            acc += Fraction(1, i % 37 + 1) * Fraction(out[i % 219] % 997, 7)
        table = {(i, i % 7): (str(i), 3 * i) for i in range(3000)}
        nested = tuple(tuple(range(j % 20)) for j in range(2000))
        json.dumps([{"a": str(Fraction(i, 3)), "b": [i, len(nested[i])]} for i in range(300)],
                   sort_keys=True)
        rows: tuple = ()
        for t in range(120):
            rows = tuple(r + (0,) for r in rows) + ((0,) * t + (1,),)
        json.dumps({"x": [{"a": str(i), "b": [i, i + 1, {"c": "d"}]} for i in range(150)]},
                   indent=2, sort_keys=True)
        del table
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Rolling median of recent kernel times."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = float("-inf")

    def measure(self) -> float:
        """The current kernel time, timing the kernel again if INTERVAL_S has passed."""
        if time.perf_counter() - self.last >= INTERVAL_S:
            self.samples.append(kernel_seconds())
            self.last = time.perf_counter()
        return statistics.median(self.samples[-WINDOW:])


def normalised(wall_s: float, kernel_s: float) -> float:
    return wall_s * REFERENCE_S / kernel_s
