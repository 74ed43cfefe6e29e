"""Tests for d-dimensional distributed SPMD generation."""

import numpy as np
import pytest

from repro.codegen.nddist import (
    collect_nd,
    compile_clause_nd_dist,
    run_distributed_nd,
)
from repro.core import (
    PAR,
    SEQ,
    AffineF,
    Bounds,
    Clause,
    IdentityF,
    IndexSet,
    Ref,
    SeparableMap,
    copy_env,
    evaluate_clause,
)
from repro.core.view import ProjectedMap
from repro.decomp import (
    Block,
    Collapsed,
    GridDecomposition,
    Replicated,
    Scatter,
)
from repro.machine.ndmemory import gather_global_nd, scatter_global_nd
from repro.machine import LocalMemory

N, M = 8, 6


def grid(a="block", b="block"):
    mk = {"block": lambda n: Block(n, 2), "scatter": lambda n: Scatter(n, 2),
          "collapsed": lambda n: Collapsed(n)}
    return GridDecomposition([mk[a](N), mk[b](M)])


def shift_clause():
    """T[i,j] := S[i, j+1] * 2."""
    return Clause(
        IndexSet(Bounds((0, 0), (N - 1, M - 2))),
        Ref("T", SeparableMap([IdentityF(), IdentityF()])),
        Ref("S", SeparableMap([IdentityF(), AffineF(1, 1)])) * 2,
    )


def env2d(seed=0):
    rng = np.random.default_rng(seed)
    return {"S": rng.random((N, M)), "T": np.zeros((N, M))}


class TestNdMemory:
    def test_scatter_gather_roundtrip(self):
        g = grid("block", "scatter")
        mems = [LocalMemory(p) for p in range(g.pmax)]
        arr = np.arange(48.0).reshape(N, M)
        scatter_global_nd("A", arr, g, mems)
        assert np.array_equal(gather_global_nd("A", g, mems), arr)

    def test_local_shapes(self):
        g = grid("block", "block")
        mems = [LocalMemory(p) for p in range(g.pmax)]
        scatter_global_nd("A", np.zeros((N, M)), g, mems)
        for p in range(g.pmax):
            assert mems[p]["A"].shape == g.local_shape(p)

    def test_shape_mismatch(self):
        g = grid()
        with pytest.raises(ValueError):
            scatter_global_nd("A", np.zeros((3, 3)), g,
                              [LocalMemory(p) for p in range(g.pmax)])


class TestCompilation:
    def test_rules_per_dim(self):
        plan = compile_clause_nd_dist(
            shift_clause(), {"T": grid(), "S": grid("block", "scatter")}
        )
        rules = plan.rules()
        assert rules["write:T:dim0"] == "block"
        assert rules["read0:S:dim1"].startswith("thm3")

    def test_seq_rejected(self):
        cl = shift_clause()
        cl.ordering = SEQ
        with pytest.raises(ValueError, match="// clauses"):
            compile_clause_nd_dist(cl, {"T": grid(), "S": grid()})

    def test_replicated_write_rejected(self):
        cl = shift_clause()
        with pytest.raises(ValueError, match="replicated writes"):
            compile_clause_nd_dist(cl, {"T": Replicated(N, 4), "S": grid()})

    def test_rank_mismatch(self):
        with pytest.raises(ValueError, match="rank"):
            compile_clause_nd_dist(shift_clause(),
                                   {"T": Block(N, 4), "S": grid()})


class TestExecution:
    @pytest.mark.parametrize("ga,gb", [
        ("block", "block"), ("block", "scatter"),
        ("scatter", "scatter"), ("scatter", "collapsed"),
    ])
    def test_shift_matches_reference(self, ga, gb):
        cl = shift_clause()
        env0 = env2d()
        ref = evaluate_clause(cl, copy_env(env0))["T"]
        plan = compile_clause_nd_dist(cl, {"T": grid(ga, gb),
                                           "S": grid(gb, ga)})
        m = run_distributed_nd(plan, copy_env(env0))
        assert np.allclose(collect_nd(m, "T"), ref), (ga, gb)

    def test_aligned_no_messages(self):
        cl = Clause(
            IndexSet.of_shape(N, M),
            Ref("T", SeparableMap([IdentityF(), IdentityF()])),
            Ref("S", SeparableMap([IdentityF(), IdentityF()])) * 3,
        )
        g = grid("block", "scatter")
        plan = compile_clause_nd_dist(cl, {"T": g, "S": g})
        m = run_distributed_nd(plan, env2d())
        assert m.stats.total_messages() == 0

    def test_column_shift_boundary_messages_only(self):
        # identical block x block grids, shift along axis 1: messages only
        # at grid column boundaries
        cl = shift_clause()
        g = grid("block", "block")
        plan = compile_clause_nd_dist(cl, {"T": g, "S": g})
        m = run_distributed_nd(plan, env2d())
        # 2 grid columns, boundary j = M//2 - 1, all N rows cross
        assert m.stats.total_messages() == N

    def test_transpose(self):
        n = 6
        cl = Clause(
            IndexSet.of_shape(n, n),
            Ref("T", SeparableMap([IdentityF(), IdentityF()])),
            Ref("S", ProjectedMap([1, 0], [IdentityF(), IdentityF()])),
        )
        g = GridDecomposition([Block(n, 2), Scatter(n, 2)])
        env0 = {"S": np.arange(36.0).reshape(n, n), "T": np.zeros((n, n))}
        plan = compile_clause_nd_dist(cl, {"T": g, "S": g})
        m = run_distributed_nd(plan, copy_env(env0))
        assert np.array_equal(collect_nd(m, "T"), env0["S"].T)

    def test_replicated_vector_operand(self):
        cl = Clause(
            IndexSet.of_shape(N, M),
            Ref("T", SeparableMap([IdentityF(), IdentityF()])),
            Ref("S", SeparableMap([IdentityF(), IdentityF()]))
            + Ref("x", ProjectedMap([1], [IdentityF()])),
        )
        g = grid("block", "block")
        rng = np.random.default_rng(2)
        env0 = {"S": rng.random((N, M)), "x": rng.random(M),
                "T": np.zeros((N, M))}
        ref = evaluate_clause(cl, copy_env(env0))["T"]
        plan = compile_clause_nd_dist(
            cl, {"T": g, "S": g, "x": Replicated(M, g.pmax)}
        )
        m = run_distributed_nd(plan, copy_env(env0))
        assert np.allclose(collect_nd(m, "T"), ref)
        assert m.stats.total_messages() == 0  # replication kills traffic

    def test_guarded_2d(self):
        cl = shift_clause()
        cl.guard = Ref("S", SeparableMap([IdentityF(), IdentityF()])) > 0.5
        env0 = env2d(seed=7)
        ref = evaluate_clause(cl, copy_env(env0))["T"]
        plan = compile_clause_nd_dist(cl, {"T": grid("scatter", "block"),
                                           "S": grid("block", "scatter")})
        m = run_distributed_nd(plan, copy_env(env0))
        assert np.allclose(collect_nd(m, "T"), ref)

    def test_membership_is_owner_computes(self):
        plan = compile_clause_nd_dist(shift_clause(),
                                      {"T": grid(), "S": grid()})
        g = plan.write.dec
        seen = set()
        for p in range(plan.pmax):
            for idx in plan.write.membership(p, plan.loop_bounds):
                assert g.proc(idx) == p
                assert idx not in seen
                seen.add(idx)
        assert len(seen) == N * (M - 1)
