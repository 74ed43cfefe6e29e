"""The yardstick: a fixed piece of work timed beside every sample, so
that a slow phase of the shared host cancels out of the time metrics.

The benchmark host changes speed — a fixed loop runs 30–60 % slower for
tens of seconds at a time, in CPU time as much as in wall time, with no
steal reported — and a run is too short to outlast such a phase.  So
every timed sample (an op, a cold compile, a set-up, a slice of serve
traffic) has one pass of the yardstick taken right before and right
after it, outside the timed region, and is reported in **nominal
seconds**: measured seconds ÷ the slowdown the two passes show,
``mean(passes) / NOMINAL_S``.  On a host at its usual speed a nominal
second is a second.

The pass mixes what the workloads mix — bytecode arithmetic, calls and
container traffic, many small NumPy slice operations, a few large ones —
because no single one of them follows all five workloads (measured: an
arithmetic loop alone tracks the compile path, not the stencil
workloads; the large-array part alone tracks neither).
"""

from __future__ import annotations

import time
from statistics import mean

import numpy as np

__all__ = ["NOMINAL_S", "SETUP_PASSES", "measure", "slowdown"]

#: seconds one pass takes on the benchmark host at its usual speed
#: (session medians between 13.7 and 15.6 ms on the day it was fixed).
#: Every gated time metric is scaled by it: changing it, or the pass,
#: re-bases them all, so the baseline must be measured again with it.
NOMINAL_S = 0.014
#: passes on each side of a set-up: a set-up is one sample, not a
#: median of many, so the passes' own jitter (±10 %) would show in it
SETUP_PASSES = 3

_BIG = np.random.default_rng(0).random((384, 384))
_OUT = _BIG.copy()
_SMALL_IN, _SMALL_OUT = _BIG[:96, :96], _OUT[:96, :96]


class _Tally:
    def __init__(self) -> None:
        self.seen: dict = {}
        self.calls = 0

    def note(self, x: int) -> int:
        self.calls += 1
        self.seen[x % 97] = (x, self.calls)
        return len(self.seen)


def _five_point(src: np.ndarray, dst: np.ndarray) -> None:
    dst[1:-1, 1:-1] = 0.25 * ((src[:-2, 1:-1] + src[2:, 1:-1])
                              + (src[1:-1, :-2] + src[1:-1, 2:]))


def _pass() -> int:
    total = 0
    for i in range(60000):                  # bytecode arithmetic
        total += i * i % 7
    tally = _Tally()
    for i in range(6000):                   # calls, dict, tuple, list
        total += tally.note(i)
        total += len([a for a in tuple(range(i % 5)) if a])
    for _ in range(150):                    # small-array NumPy, call-bound
        _five_point(_SMALL_IN, _SMALL_OUT)
    for _ in range(3):                      # large-array NumPy, memory-bound
        _five_point(_BIG, _OUT)
    return total


def measure(passes: int = 1) -> float:
    """Seconds one pass of the yardstick takes right now (the mean of
    *passes* of them)."""
    t0 = time.perf_counter()
    for _ in range(passes):
        _pass()
    return (time.perf_counter() - t0) / passes


def slowdown(*passes: float) -> float:
    """How much slower than nominal the host ran, given the passes taken
    around a sample."""
    return mean(passes) / NOMINAL_S


# the first pass in a process pays for cold caches and first-touch pages
measure()
