"""Record multi-process runtime results into BENCH_runtime.json.

For the E13 1-D stencil and the E19 2-D five-point stencil at worker
counts P in {2, 4, 8}, each compiled plan runs end to end — fresh
machine per rep, exactly what a caller of ``run_distributed`` /
``run_distributed_nd`` pays — under the in-process fused backend and the
multi-process runtime.  The mp runtime executes the *same* compile-once
kernels on real OS processes over shared memory.  Both sides place by
whole-array copies, so ``speedup_mp_over_fused`` is queue, barrier and
dispatch cost against real-core concurrency; it depends on the host's
core count and is recorded, not gated.

Asserted invariants:

* mp results are bit-identical to fused on every row
  (``identical_results`` true);
* the pool persists across reps (same worker pids first to last);
* after ``shutdown_runtime()`` no ``/dev/shm`` segment leaks.

``--smoke`` runs tiny sizes, checks bit-identity and pool reuse only,
and writes no JSON (the CI runtime job uses it).

Usage::

    PYTHONPATH=src python benchmarks/bench_runtime.py [--smoke]
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

from repro.codegen import compile_clause, run_distributed
from repro.codegen.nddist import (
    collect_nd,
    compile_clause_nd_dist,
    run_distributed_nd,
)
from repro.core import (
    AffineF,
    Bounds,
    Clause,
    Const,
    IdentityF,
    IndexSet,
    Ref,
    SeparableMap,
    copy_env,
)
from repro.core.expr import BinOp
from repro.decomp import Block, GridDecomposition
from repro.pipeline import clear_plan_cache
from repro.runtime import get_pool, shutdown_runtime

try:
    from .conftest import bench_metadata
except ImportError:  # run as a script: benchmarks/ is sys.path[0]
    from conftest import bench_metadata

REPS = 5
SEED = 2026
PROCS = (2, 4, 8)


def _median_of(fn, reps=REPS):
    times, out = [], None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return median(times), out


def _e13_clause(n):
    return Clause(
        domain=IndexSet.range1d(1, n - 2),
        lhs=Ref("A", SeparableMap([AffineF(1, 0)])),
        rhs=Ref("B", SeparableMap([AffineF(1, -1)]))
        + Ref("B", SeparableMap([AffineF(1, 1)])),
    )


def _e19_clause(n):
    def sref(di, dj):
        fi = AffineF(1, di) if di else IdentityF()
        fj = AffineF(1, dj) if dj else IdentityF()
        return Ref("S", SeparableMap([fi, fj]))

    return Clause(
        IndexSet(Bounds((1, 1), (n - 2, n - 2))),
        Ref("T", SeparableMap([IdentityF(), IdentityF()])),
        BinOp("*", Const(0.25),
              BinOp("+", BinOp("+", sref(-1, 0), sref(1, 0)),
                    BinOp("+", sref(0, -1), sref(0, 1)))),
    )


def _grid(n, p):
    side = {2: (2, 1), 4: (2, 2), 8: (4, 2)}[p]
    return GridDecomposition([Block(n, side[0]), Block(n, side[1])])


def _workloads(smoke):
    """Yield (label, pmax, compile(), run(plan, backend), collect(m))."""
    n = 1 << 12 if smoke else 1 << 18
    rng = np.random.default_rng(SEED)
    env13 = {"A": np.zeros(n), "B": rng.random(n)}
    for p in PROCS:
        decomps = {"A": Block(n, p), "B": Block(n, p)}
        yield (f"e13-stencil-1d", p,
               lambda decomps=decomps, n=n: compile_clause(
                   _e13_clause(n), decomps),
               lambda plan, backend, env=env13, p=p: run_distributed(
                   plan, copy_env(env), backend=backend, processes=p),
               lambda m: m.collect("A"))

    n2 = 64 if smoke else 384
    rng = np.random.default_rng(SEED)
    env19 = {"S": rng.random((n2, n2)), "T": np.zeros((n2, n2))}
    for p in PROCS:
        g = _grid(n2, p)
        yield (f"e19-grid-2d", p,
               lambda g=g, n2=n2: compile_clause_nd_dist(
                   _e19_clause(n2), {"T": g, "S": g}),
               lambda plan, backend, env=env19, p=p: run_distributed_nd(
                   plan, copy_env(env), backend=backend, processes=p),
               lambda m: collect_nd(m, "T"))


def _leak_check():
    if not os.path.isdir("/dev/shm"):
        return []
    return [f for f in os.listdir("/dev/shm") if f.startswith("repro-mp-")]


def main(argv=None) -> int:
    smoke = "--smoke" in (argv if argv is not None else sys.argv[1:])
    clear_plan_cache()
    rows = []
    failures = []
    for label, p, compile_fn, run_fn, collect_fn in _workloads(smoke):
        plan = compile_fn()

        t_fused, m_fused = _median_of(lambda run_fn=run_fn: run_fn(plan, "fused"))
        ref = collect_fn(m_fused)

        # cold: first mp run pays the pool spawn + program install
        shutdown_runtime()
        t0 = time.perf_counter()
        m_cold = run_fn(plan, "mp")
        t_cold = time.perf_counter() - t0
        pids_first = [s.pid for s in m_cold.runtime_stats]

        t_mp, m_mp = _median_of(lambda run_fn=run_fn: run_fn(plan, "mp"))
        pids_last = [s.pid for s in m_mp.runtime_stats]

        identical = bool(np.array_equal(ref, collect_fn(m_mp))
                         and np.array_equal(ref, collect_fn(m_cold)))
        pool_reused = pids_first == pids_last
        speedup = t_fused / t_mp if t_mp else float("inf")
        row = {
            "workload": label,
            "processes": p,
            "fused_s": round(t_fused, 6),
            "mp_warm_s": round(t_mp, 6),
            "mp_cold_s": round(t_cold, 6),
            "speedup_mp_over_fused": round(speedup, 3),
            "identical_results": identical,
            "pool_reused": pool_reused,
            "worker_pids": pids_last,
        }
        rows.append(row)
        print(f"{label:18s} P={p}  fused {t_fused*1e3:9.2f} ms   "
              f"mp {t_mp*1e3:9.2f} ms (cold {t_cold*1e3:8.2f} ms)  "
              f"speedup {speedup:5.2f}x  "
              f"identical={identical} reused={pool_reused}")
        if not identical:
            failures.append(f"{label} P={p}: results differ from fused")
        if not pool_reused:
            failures.append(f"{label} P={p}: pool was not reused")

    shutdown_runtime()
    leaked = _leak_check()
    if leaked:
        failures.append(f"/dev/shm leaks after shutdown: {leaked}")

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1

    if smoke:
        print("smoke OK (no JSON written)")
        return 0

    out = {
        "meta": bench_metadata(),
        "bench": "runtime",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "reps": REPS,
        "rows": rows,
    }
    path = Path(__file__).resolve().parent.parent / "BENCH_runtime.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
