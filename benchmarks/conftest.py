"""Shared helpers for the benchmark harness.

Every ``bench_*``/``test_*`` here both *benchmarks* a code path (via
pytest-benchmark) and *prints* the paper-shaped rows it reproduces, so

    pytest benchmarks/ --benchmark-only -s

regenerates each table/figure of the paper (see EXPERIMENTS.md for the
paper-vs-measured record).
"""

from __future__ import annotations

import numpy as np
import pytest


def print_table(title: str, header: list[str], rows: list[list]) -> None:
    """Render a small fixed-width table to stdout."""
    widths = [
        max(len(str(header[k])), *(len(str(r[k])) for r in rows)) if rows
        else len(str(header[k]))
        for k in range(len(header))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for r in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))


@pytest.fixture
def rng():
    return np.random.default_rng(2026)
