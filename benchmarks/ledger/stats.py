"""The few statistics the ledger reports: medians with quartiles, and
the highest percentile that still has ten samples beyond it."""

from __future__ import annotations

import statistics
import time
from typing import Callable, Sequence, Tuple

__all__ = ["median_seconds", "quartiles", "ratio", "sampled", "single",
           "tail"]


def median_seconds(fn: Callable[[], object], reps: int) -> float:
    """Median wall time of *reps* calls of *fn*."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def quartiles(xs: Sequence[float]) -> Tuple[float, float]:
    if len(xs) < 2:
        return float(xs[0]), float(xs[0])
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def tail(xs: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest percentile that still has
    ten samples beyond it; the median when there are too few samples."""
    n = len(xs)
    if n < 20:
        return statistics.median(xs), 50.0
    return sorted(xs)[n - 11], 100.0 * (n - 10) / n


def sampled(xs: Sequence[float], unit: str) -> dict:
    q1, q3 = quartiles(xs)
    return {"value": statistics.median(xs), "unit": unit, "q1": q1,
            "q3": q3, "samples": len(xs)}


def single(x: float, unit: str) -> dict:
    return {"value": x, "unit": unit, "q1": x, "q3": x, "samples": 1}


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0
