"""One snapshot surface for every compile-state cache.

``cache_stats()`` returns a plain-data dict (JSON-able) covering the
plan, Table I, kernel, program and verify caches plus the
compile single-flight counters.  Three consumers share it: the CLI
(``repro compile --cache-stats`` text block, and machine-readable with
``--json``), the serve daemon's ``stats`` endpoint, and the benchmark
harnesses.

``clear_all_caches()`` is the admin reset behind the serve ``clear``
op: it drops every cache (plans, kernels, programs, Table I memos,
verify reports) and disposes any live worker pools, returning the
fresh snapshot.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["cache_stats", "clear_all_caches"]


def cache_stats() -> Dict[str, Dict[str, object]]:
    """Hit/miss/eviction/size counters of every cache, one nested dict.

    Keys: ``plan``, ``table1``, ``kernel`` (size-accounted: includes
    ``bytes``/``max_bytes``), ``program``, ``verify``, and
    ``singleflight`` (thread-level compile coalescing: ``leaders`` led
    a pipeline execution, ``waits`` piggybacked on one in flight).
    """
    from .analysis import verify_cache_info
    from .pipeline import (
        compile_flight,
        kernel_cache_info,
        plan_cache_info,
        program_cache_info,
    )
    from .sets.table1 import table1_cache_info

    return {
        "plan": plan_cache_info(),
        "table1": table1_cache_info(),
        "kernel": kernel_cache_info(),
        "program": program_cache_info(),
        "verify": verify_cache_info(),
        "singleflight": compile_flight.info(),
    }


def clear_all_caches() -> Dict[str, Dict[str, object]]:
    """Drop every cache and dispose live worker pools; returns the
    post-clear :func:`cache_stats` snapshot."""
    from .analysis import clear_verify_cache
    from .pipeline import clear_plan_cache
    from .sets.table1 import clear_table1_cache

    clear_plan_cache()  # also kernels, programs, and the mp runtime
    clear_table1_cache()
    clear_verify_cache()
    return cache_stats()
