"""Tests for multi-dimensional SPMD generation over processor grids."""

import numpy as np
import pytest

from repro.codegen.ndplan import compile_clause_nd, run_shared_nd
from repro.core import (
    PAR,
    SEQ,
    AffineF,
    BinOp,
    Clause,
    IdentityF,
    IndexSet,
    Ref,
    SeparableMap,
    copy_env,
    evaluate_clause,
)
from repro.core.view import ProjectedMap
from repro.decomp import Block, Collapsed, GridDecomposition, Scatter
from repro.frontend import translate_source


def grid_bb(n=12, m=8):
    return GridDecomposition([Block(n, 2), Block(m, 2)])


def grid_bs(n=12, m=8):
    return GridDecomposition([Block(n, 2), Scatter(m, 3)])


def env2d(n=12, m=8, seed=0):
    rng = np.random.default_rng(seed)
    return {"M": rng.random((n, m)), "N": np.zeros((n, m))}


def scale_clause(n=12, m=8, ordering=PAR):
    m_ref = Ref("M", SeparableMap([IdentityF(), IdentityF()]))
    return Clause(
        domain=IndexSet.of_shape(n, m),
        lhs=Ref("N", SeparableMap([IdentityF(), IdentityF()])),
        rhs=m_ref * 2 + 1,
        ordering=ordering,
    )


class TestCompilation:
    def test_per_dimension_rules(self):
        plan = compile_clause_nd(scale_clause(), {"N": grid_bs(), "M": grid_bs()})
        rules = plan.rules()
        assert rules["write:N:dim0"] == "block"
        assert rules["write:N:dim1"].startswith("thm3")

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            compile_clause_nd(scale_clause(), {"N": Block(12, 4)})

    def test_modify_partitions_domain(self):
        plan = compile_clause_nd(scale_clause(), {"N": grid_bb()})
        seen = set()
        for p in range(plan.pmax):
            for idx in plan.modify_indices(p):
                assert idx not in seen
                seen.add(idx)
        assert len(seen) == 12 * 8

    def test_owner_computes_on_grid(self):
        g = grid_bs()
        plan = compile_clause_nd(scale_clause(), {"N": g})
        for p in range(g.pmax):
            for idx in plan.modify_indices(p):
                assert g.proc(idx) == p


class TestExecution:
    @pytest.mark.parametrize("mkgrid", [grid_bb, grid_bs],
                             ids=["block-block", "block-scatter"])
    def test_scale_matches_reference(self, mkgrid):
        cl = scale_clause()
        env0 = env2d()
        ref = evaluate_clause(cl, copy_env(env0))["N"]
        m = run_shared_nd(
            compile_clause_nd(cl, {"N": mkgrid(), "M": mkgrid()}),
            copy_env(env0),
        )
        assert np.allclose(m.env["N"], ref)

    def test_transpose_access(self):
        # N[i,j] := M[j,i] — ProjectedMap with flipped dims
        n = 6
        cl = Clause(
            domain=IndexSet.of_shape(n, n),
            lhs=Ref("N", SeparableMap([IdentityF(), IdentityF()])),
            rhs=Ref("M", ProjectedMap([1, 0], [IdentityF(), IdentityF()])),
        )
        env0 = {"M": np.arange(36.0).reshape(6, 6), "N": np.zeros((6, 6))}
        g = GridDecomposition([Block(n, 2), Scatter(n, 2)])
        m = run_shared_nd(compile_clause_nd(cl, {"N": g}), copy_env(env0))
        assert np.array_equal(m.env["N"], env0["M"].T)

    def test_matvec_from_frontend(self):
        # the reduction dimension j is unconstrained: it runs fully on
        # the owner of y[i]
        prog = translate_source("""
            for i := 0 to 11 par do
              for j := 0 to 7 seq do
                y[i] := y[i] + M[i, j] * x[j];
              od
            od
        """)
        cl = prog.clauses[0]
        rng = np.random.default_rng(3)
        env0 = {"y": np.zeros(12), "M": rng.random((12, 8)),
                "x": rng.random(8)}
        want = env0["M"] @ env0["x"]
        plan = compile_clause_nd(cl, {"y": Block(12, 4)})
        m = run_shared_nd(plan, copy_env(env0))
        assert np.allclose(m.env["y"], want)
        # work is row-balanced
        assert m.stats.update_counts() == [24, 24, 24, 24]

    def test_guarded_2d(self):
        cl = scale_clause()
        cl.guard = Ref("M", SeparableMap([IdentityF(), IdentityF()])) > 0.5
        env0 = env2d(seed=4)
        ref = evaluate_clause(cl, copy_env(env0))["N"]
        m = run_shared_nd(
            compile_clause_nd(cl, {"N": grid_bb(), "M": grid_bb()}),
            copy_env(env0),
        )
        assert np.allclose(m.env["N"], ref)

    def test_seq_2d_recurrence(self):
        # N[i,j] := N[i, j-1] + M[i,j] — row-wise scan, • ordering
        n, mm = 4, 6
        from repro.core import Bounds

        cl = Clause(
            domain=IndexSet(Bounds((0, 1), (n - 1, mm - 1))),
            lhs=Ref("N", SeparableMap([IdentityF(), IdentityF()])),
            rhs=BinOp(
                "+",
                Ref("N", SeparableMap([IdentityF(), AffineF(1, -1)])),
                Ref("M", SeparableMap([IdentityF(), IdentityF()])),
            ),
            ordering=SEQ,
        )
        rng = np.random.default_rng(5)
        env0 = {"M": rng.random((n, mm)), "N": rng.random((n, mm))}
        ref = evaluate_clause(cl, copy_env(env0))["N"]
        g = GridDecomposition([Block(n, 2), Collapsed(mm)])
        m = run_shared_nd(compile_clause_nd(cl, {"N": g, "M": g}),
                          copy_env(env0))
        assert np.allclose(m.env["N"], ref)

    def test_membership_overhead_closed_form(self):
        # grid membership uses the Table I closed forms per dimension:
        # no full-domain scans
        cl = scale_clause(n=64, m=64)
        env0 = {"M": np.zeros((64, 64)), "N": np.zeros((64, 64))}
        plan = compile_clause_nd(cl, {"N": grid_bb(64, 64)})
        m = run_shared_nd(plan, copy_env(env0))
        assert m.stats.total_tests() == 0
        assert m.stats.total_updates() == 64 * 64
