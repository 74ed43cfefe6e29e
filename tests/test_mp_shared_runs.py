"""Real-process shared runs: each mp worker runs the contiguous run of
node ids it owns (``kernels.owner``) as ONE ``union`` block.

Covered here: a differential over 1, 2 and 3 workers and four layouts
(a 2x2 grid of Blocks, 1-D Block, Scatter, BS(b)) — a guarded clause,
whose per-node store counts come from the guard mask over each node's
part of the block, and a ``repeat`` + ``swap`` time loop — each
bit-identical to the in-process ``fused`` run with identical per-node
counters; which runs merge (grid rows, Block runs) and which split into
one-node kernels (Scatter's and BS(b)'s interleaved nodes); and the
E19 worker block on the 2x2 grid running as flat spans.
"""

import numpy as np
import pytest

from benchmarks.ledger.stencils import e19_clause, grid2x2
from repro import (
    Block,
    BlockScatter,
    Bounds,
    Clause,
    IndexSet,
    Ref,
    Scatter,
    SeparableMap,
    copy_env,
    run_shared,
    shutdown_runtime,
)
from repro.core import AffineF, IdentityF
from repro.core.clause import Program
from repro.machine.fused import _lane_rows, _spans
from repro.pipeline import compile_program, run_program
from repro.pipeline.kernels import flavor_nodes, owner

N, P, STEPS = 24, 4, 3

#: layout -> (decomposition of S and T, node runs merge into one block)
LAYOUTS = {
    "grid2x2": (grid2x2(N), True),
    "block": (Block(N, P), True),
    "scatter": (Scatter(N, P), False),
    "bs": (BlockScatter(N, P, 2), False),
}


@pytest.fixture(scope="module", autouse=True)
def runtime_teardown():
    yield
    shutdown_runtime()


def _ref(name, *shifts):
    return Ref(name, SeparableMap([AffineF(1, s) if s else IdentityF()
                                   for s in shifts]))


def clause(layout: str, guarded: bool) -> Clause:
    """``T := S``'s neighbour mean (1-D) or E19's stencil (2-D), under
    ``S > 0.4`` when *guarded*."""
    if layout == "grid2x2":
        cl = e19_clause(N)
        guard = _ref("S", 0, 0) > 0.4 if guarded else None
        return Clause(cl.domain, cl.lhs, cl.rhs, guard=guard)
    return Clause(IndexSet(Bounds((1,), (N - 2,))), _ref("T", 0),
                  (_ref("S", -1) + _ref("S", 1)) * 0.5,
                  guard=_ref("S", 0) > 0.4 if guarded else None)


def env(layout: str, seed: int = 0):
    shape = (N, N) if layout == "grid2x2" else (N,)
    rng = np.random.default_rng(seed)
    return {"S": rng.random(shape), "T": rng.random(shape)}


def counters(m):
    return [vars(s) for s in m.stats]


def runs(plan, procs):
    return [[p for p, _, _ in nk.parts]
            for nk in flavor_nodes(plan, "union", procs=procs)]


@pytest.mark.parametrize("procs", [1, 2, 3])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
class TestWorkerRuns:
    def test_guarded_clause_agrees_with_fused(self, layout, procs):
        dec, merges = LAYOUTS[layout]
        pir = compile_program(Program([clause(layout, True)]),
                              {"S": dec, "T": dec})
        plan = pir.steps[0].ir
        e = env(layout)
        want = run_shared(plan, copy_env(e), backend="fused")
        got = run_shared(plan, copy_env(e), backend="mp", processes=procs)
        assert not plan.trace.notes  # the mp tier ran
        assert np.array_equal(got.env["T"], want.env["T"])
        assert counters(got) == counters(want)
        # the guard stored some lanes and skipped others on every node
        assert all(0 < s.local_updates < s.iterations for s in got.stats)
        # each worker's run of nodes: one block, or one kernel per node
        # (one process holds every node: their union is the loop range)
        mine = [[p for p in range(P) if owner(p, P, procs) == r]
                for r in range(procs)]
        assert runs(plan, procs) == [
            run for run in mine for run in (
                [run] if merges or procs == 1 else [[p] for p in run])]

    def test_time_loop_agrees_with_fused(self, layout, procs):
        dec, _ = LAYOUTS[layout]
        pir = compile_program(Program([clause(layout, False)]),
                              {"S": dec, "T": dec}, repeat=STEPS,
                              swap=(("S", "T"),))
        e = env(layout, seed=1)
        want, _ = run_program(pir, copy_env(e), backend="fused")
        got, _ = run_program(pir, copy_env(e), backend="mp",
                             processes=procs)
        assert not pir.trace.notes
        for name in "ST":
            assert np.array_equal(got.env[name], want.env[name])
        assert counters(got) == counters(want)


def test_e19_worker_block_runs_as_spans():
    """On the 2x2 grid two workers each own one grid row of nodes: a
    block of whole rows of the global array, so its reads share one
    pitch and the entry cuts them as flat spans."""
    plan = compile_program(Program([e19_clause(N)]),
                           {"S": grid2x2(N), "T": grid2x2(N)}).steps[0].ir
    genv = env("grid2x2")
    nodes = flavor_nodes(plan, "union", procs=2)
    assert runs(plan, 2) == [[0, 1], [2, 3]]
    for nk in nodes:
        (blk,) = nk.blocks
        assert blk.span and nk.shape[1] == N - 2  # full-width rows
        rows, origin = _lane_rows(nk, genv, "T")
        assert _spans(blk, rows, origin) is not None
