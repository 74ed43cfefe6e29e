"""3-D coverage: the d-dimensional machinery beyond the 2-D tests."""

import itertools

import numpy as np
import pytest

from repro.codegen.ndplan import compile_clause_nd, run_shared_nd
from repro.core import (
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
from repro.decomp import Block, Collapsed, GridDecomposition, Scatter

NX, NY, NZ = 6, 5, 4


def grid3():
    return GridDecomposition([Block(NX, 2), Scatter(NY, 2), Collapsed(NZ)])


class TestGrid3D:
    def test_pmax_product(self):
        assert grid3().pmax == 4

    def test_roundtrip_placement(self):
        g = grid3()
        for idx in itertools.product(range(NX), range(NY), range(NZ)):
            p = g.proc(idx)
            l = g.local(idx)
            assert g.global_index(p, l) == idx

    def test_bijection(self):
        grid3().validate()

    def test_owned_partition(self):
        g = grid3()
        total = sum(len(g.owned(p)) for p in range(g.pmax))
        assert total == NX * NY * NZ

    def test_local_shapes_cover(self):
        g = grid3()
        vol = sum(
            np.prod(g.local_shape(p)) for p in range(g.pmax)
        )
        assert vol == NX * NY * NZ


class TestNdPlan3D:
    def mk_clause(self, shift=(0, 0, 1)):
        fs = [AffineF(1, s) if s else IdentityF() for s in shift]
        his = (NX - 1 - shift[0], NY - 1 - shift[1], NZ - 1 - shift[2])
        return Clause(
            IndexSet(Bounds((0, 0, 0), his)),
            Ref("T", SeparableMap([IdentityF(), IdentityF(), IdentityF()])),
            Ref("S", SeparableMap(fs)) * 2,
        )

    def env(self, rng):
        return {"S": rng.random((NX, NY, NZ)),
                "T": np.zeros((NX, NY, NZ))}

    def test_3d_shared_matches_reference(self, rng):
        cl = self.mk_clause()
        env0 = self.env(rng)
        ref = evaluate_clause(cl, copy_env(env0))["T"]
        g = grid3()
        m = run_shared_nd(compile_clause_nd(cl, {"T": g, "S": g}),
                          copy_env(env0))
        assert np.allclose(m.env["T"], ref)

    def test_3d_rules_per_dim(self):
        plan = compile_clause_nd(self.mk_clause(), {"T": grid3()})
        rules = plan.rules()
        assert rules["write:T:dim0"] == "block"
        assert rules["write:T:dim1"].startswith("thm3")
        assert rules["write:T:dim2"] == "collapsed"  # undistributed axis

    def test_3d_owner_computes(self):
        g = grid3()
        plan = compile_clause_nd(self.mk_clause(), {"T": g})
        seen = set()
        for p in range(g.pmax):
            for idx in plan.modify_indices(p):
                assert g.proc(idx) == p
                seen.add(idx)
        assert len(seen) == NX * NY * (NZ - 1)

    def test_3d_membership_tests_zero(self, rng):
        cl = self.mk_clause(shift=(0, 0, 0))
        g = grid3()
        m = run_shared_nd(compile_clause_nd(cl, {"T": g, "S": g}),
                          self.env(rng))
        assert m.stats.total_tests() == 0
        assert m.stats.total_updates() == NX * NY * NZ
