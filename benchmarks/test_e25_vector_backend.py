"""E25 (extension) — the batching executor vs the scalar templates.

The pipeline's closed-form Enumerations (Table I) describe each node's
iteration set as a handful of strides, so the per-element interpreter
loop can be replaced by NumPy strided operations wholesale: membership
and placement become slices of node memory (``backend="fused"``), and
the communication phase one batched message per (read, destination).
Same messages' *content*, far fewer Python-level steps — the acceptance
bar is a ≥3x wall-clock win on the E19 five-point stencil with
bit-identical results.  (The file is named after the ``vector`` tier
that first stated the batched schedule; ``fused`` is its compile-once
successor and the only in-process batching tier.)
"""

import time

import numpy as np
import pytest

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
    evaluate_clause,
)
from repro.core.expr import BinOp
from repro.decomp import Block, GridDecomposition

from .conftest import print_table
from .test_e19_grid_2d import N, PMAX, env2d, five_point, tiles_dec


def _best_of(fn, reps=3):
    best, out = float("inf"), None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def test_vector_beats_scalar_3x_on_e19_stencil(rng):
    cl = five_point()
    env0 = env2d(rng)
    g = tiles_dec()
    plan = compile_clause_nd_dist(cl, {"T": g, "S": g})
    ref = evaluate_clause(cl, copy_env(env0))["T"]

    t_s, m_s = _best_of(lambda: run_distributed_nd(plan, copy_env(env0)))
    t_v, m_v = _best_of(
        lambda: run_distributed_nd(plan, copy_env(env0), backend="fused")
    )

    out_s, out_v = collect_nd(m_s, "T"), collect_nd(m_v, "T")
    assert np.allclose(out_s, ref)
    assert np.array_equal(out_s, out_v)  # bit-identical, not just close
    # batching: one message per (read, neighbour) instead of per element
    assert m_v.stats.total_messages() < m_s.stats.total_messages()
    assert (m_v.stats.total_elements_moved()
            == m_s.stats.total_elements_moved())

    speedup = t_s / t_v
    print_table(
        f"E25: 5-point stencil {N}x{N} on {PMAX} tiles — scalar template "
        f"vs fused node kernels",
        ["backend", "best of 3 (ms)", "messages", "elements moved"],
        [
            ["scalar", f"{t_s * 1e3:.1f}", m_s.stats.total_messages(),
             m_s.stats.total_elements_moved()],
            ["fused", f"{t_v * 1e3:.1f}", m_v.stats.total_messages(),
             m_v.stats.total_elements_moved()],
            ["speedup", f"{speedup:.1f}x", "", ""],
        ],
    )
    assert speedup >= 3.0


@pytest.mark.parametrize("backend", ["scalar", "fused"])
def test_stencil_backend_timing(benchmark, backend, rng):
    cl = five_point()
    env0 = env2d(rng)
    g = tiles_dec()
    plan = compile_clause_nd_dist(cl, {"T": g, "S": g})

    def run():
        return run_distributed_nd(plan, copy_env(env0), backend=backend)

    m = benchmark(run)
    assert m.stats.total_updates() == (N - 2) * (N - 2)
