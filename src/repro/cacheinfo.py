"""One snapshot surface for every compile-state cache.

``cache_stats()`` returns a plain-data dict (JSON-able) covering the
parse memo and the plan, Table I, kernel, program and verify caches
plus the compile single-flight counters.  Three consumers share it:
the CLI (``repro compile --cache-stats`` text block, and
machine-readable with ``--json``), the serve daemon's ``stats``
endpoint, and the benchmark harnesses.

``clear_all_caches()`` is the admin reset behind the serve ``clear``
op: it drops every cache (parsed texts, plans, kernels, programs,
Table I memos, verify reports), empties the node-memory pool and
disposes any live worker pools, returning the fresh snapshot.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["cache_stats", "clear_all_caches"]


def cache_stats() -> Dict[str, Dict[str, object]]:
    """Hit/miss/eviction/size counters of every cache, one nested dict.

    Keys: ``parse`` (the frontend's AST memo; ``bytes`` is the source
    text it holds), ``plan``, ``table1``, ``kernel`` (size-accounted:
    includes ``bytes``/``max_bytes``), ``program``, ``verify``, and
    ``singleflight`` (thread-level compile coalescing: ``leaders`` led
    a pipeline execution, ``waits`` piggybacked on one in flight),
    ``shm`` (the mp runtime's arena: ``segments`` and their ``bytes``;
    zeros when the runtime was never imported) and ``node_memory`` (the
    in-process pool of node-memory buffers, see
    :func:`repro.machine.memory.lease`: ``leases``, ``reused``,
    ``free_bytes``, ``peak_bytes``).
    """
    import sys

    from .analysis import verify_cache_info
    from .frontend import parse_cache_info
    from .machine.memory import lease_info
    from .pipeline import (
        compile_flight,
        kernel_cache_info,
        plan_cache_info,
        program_cache_info,
    )
    from .sets.table1 import table1_cache_info

    shm = sys.modules.get("repro.runtime.shm")  # never import it to read it
    return {
        "parse": parse_cache_info(),
        "plan": plan_cache_info(),
        "table1": table1_cache_info(),
        "kernel": kernel_cache_info(),
        "program": program_cache_info(),
        "verify": verify_cache_info(),
        "singleflight": compile_flight.info(),
        "shm": shm.arena_info() if shm is not None
        else {"segments": 0, "bytes": 0},
        "node_memory": lease_info(),
    }


def clear_all_caches() -> Dict[str, Dict[str, object]]:
    """Drop every cache, empty the node-memory pool and dispose live
    worker pools; returns the post-clear :func:`cache_stats` snapshot."""
    from .analysis import clear_verify_cache
    from .frontend import clear_parse_cache
    from .machine.memory import clear_leases
    from .pipeline import clear_plan_cache
    from .sets.table1 import clear_table1_cache

    clear_parse_cache()
    clear_plan_cache()  # also kernels, programs, and the mp runtime
    clear_table1_cache()
    clear_verify_cache()
    clear_leases()
    return cache_stats()
