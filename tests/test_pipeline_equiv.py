"""Equivalence properties of the unified pipeline and its batching tier.

Two families of checks:

* pipeline-compiled plans execute element-identically to the sequential
  reference evaluator across decomposition kinds and both machines;
* the batching executor (``fused``: one message per (read, peer) pair,
  interior computed while messages are in flight) and the emitted
  source produce bit-identical arrays to the scalar templates.  (The
  ``TestVector*`` / ``TestOverlap*`` classes are named after the two
  interpreting tiers that stated those schedules before ``fused``.)
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codegen.barriers import run_program_shared
from repro.codegen.dist_tmpl import run_distributed
from repro.codegen.ndplan import compile_clause_nd, run_shared_nd
from repro.codegen.nddist import (
    collect_nd,
    compile_clause_nd_dist,
    run_distributed_nd,
)
from repro.codegen.plan import compile_clause
from repro.codegen.pysource import compile_distributed, compile_shared
from repro.codegen.shared_tmpl import run_shared
from repro.core import (
    PAR,
    SEQ,
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
from repro.core.view import ProjectedMap
from repro.decomp import (
    Block,
    BlockScatter,
    Collapsed,
    GridDecomposition,
    Replicated,
    Scatter,
)

from .conftest import check_all_tiers, mpi_stub

N, P = 40, 4

DEC_KINDS = {
    "block": lambda n: Block(n, P),
    "scatter": lambda n: Scatter(n, P),
    "bs": lambda n: BlockScatter(n, P, 3),
}


def affine_clause():
    """A[i+1] := B[2i] * 0.5 + C[i] over the range keeping 2i in bounds."""
    return Clause(
        IndexSet(Bounds((0,), ((N - 1) // 2,))),
        Ref("A", SeparableMap([AffineF(1, 1)])),
        Ref("B", SeparableMap([AffineF(2, 0)])) * 0.5
        + Ref("C", SeparableMap([IdentityF()])),
    )


def guarded_clause():
    return Clause(
        IndexSet(Bounds((0,), (N - 2,))),
        Ref("A", SeparableMap([IdentityF()])),
        Ref("B", SeparableMap([AffineF(1, 1)])) * 0.5,
        guard=Ref("C", SeparableMap([IdentityF()])) > 0.5,
    )


def env1d(seed=0):
    rng = np.random.default_rng(seed)
    return {k: rng.random(N) for k in "ABC"}


@pytest.mark.parametrize("kind", sorted(DEC_KINDS))
@pytest.mark.parametrize("make", [affine_clause, guarded_clause])
class TestPipelineMatchesReference:
    def _setup(self, kind, make):
        cl = make()
        decomps = {name: DEC_KINDS[kind](N) for name in "ABC"}
        env0 = env1d()
        ref = evaluate_clause(cl, copy_env(env0))["A"]
        return cl, decomps, env0, ref

    def test_shared(self, kind, make):
        cl, decomps, env0, ref = self._setup(kind, make)
        plan = compile_clause(cl, decomps)
        m = run_shared(plan, copy_env(env0))
        assert np.array_equal(m.env["A"], ref)

    def test_distributed(self, kind, make):
        cl, decomps, env0, ref = self._setup(kind, make)
        plan = compile_clause(cl, decomps)
        m = run_distributed(plan, copy_env(env0))
        assert np.array_equal(m.collect("A"), ref)


@pytest.mark.parametrize("kind", sorted(DEC_KINDS))
@pytest.mark.parametrize("make", [affine_clause, guarded_clause])
class TestVectorMatchesScalar1D:
    def _plan_env(self, kind, make):
        cl = make()
        decomps = {name: DEC_KINDS[kind](N) for name in "ABC"}
        return compile_clause(cl, decomps), env1d()

    def test_shared_interpreter(self, kind, make):
        plan, env0 = self._plan_env(kind, make)
        a = run_shared(plan, copy_env(env0)).env["A"]
        b = run_shared(plan, copy_env(env0), backend="fused").env["A"]
        assert np.array_equal(a, b)

    def test_distributed_interpreter(self, kind, make):
        plan, env0 = self._plan_env(kind, make)
        a = run_distributed(plan, copy_env(env0)).collect("A")
        b = run_distributed(plan, copy_env(env0),
                            backend="fused").collect("A")
        assert np.array_equal(a, b)

    def test_distributed_vector_batches_messages(self, kind, make):
        plan, env0 = self._plan_env(kind, make)
        ms = run_distributed(plan, copy_env(env0))
        mv = run_distributed(plan, copy_env(env0), backend="fused")
        assert mv.stats.total_messages() <= ms.stats.total_messages()
        # batching must not change what moves
        assert (mv.stats.total_elements_moved()
                == ms.stats.total_elements_moved())

    def test_emitted_distributed_source(self, kind, make):
        from repro.machine import DistributedMachine

        plan, env0 = self._plan_env(kind, make)
        _src, factory = compile_distributed(plan)
        m = DistributedMachine(P)
        for name in "ABC":
            m.place(name, env0[name].copy(), plan.ir.decomps[name])
        m.run(factory)
        ref = run_distributed(plan, copy_env(env0), backend="fused")
        assert np.array_equal(m.collect("A"), ref.collect("A"))

    def test_emitted_shared_source(self, kind, make):
        plan, env0 = self._plan_env(kind, make)
        _src, phase = compile_shared(plan)
        env = copy_env(env0)
        pending = [w for p in range(P) for w in phase(p, env)]
        for name, idx, value in pending:
            env[name][idx] = value
        ref = run_shared(plan, copy_env(env0), backend="fused")
        assert np.array_equal(env["A"], ref.env["A"])


class TestVectorMatchesScalarND:
    N2, M2 = 8, 6

    def _grid(self):
        return GridDecomposition([Block(self.N2, 2), Scatter(self.M2, 2)])

    def _env(self, seed=1):
        rng = np.random.default_rng(seed)
        return {"S": rng.random((self.N2, self.M2)),
                "T": np.zeros((self.N2, self.M2)),
                "x": rng.random(self.M2)}

    def test_shared_grid(self):
        g = self._grid()
        cl = Clause(
            IndexSet(Bounds((0, 0), (self.N2 - 1, self.M2 - 1))),
            Ref("T", SeparableMap([IdentityF(), IdentityF()])),
            Ref("S", SeparableMap([IdentityF(), IdentityF()])) * 3,
        )
        plan = compile_clause_nd(cl, {"T": g})
        env0 = self._env()
        a = run_shared_nd(plan, copy_env(env0)).env["T"]
        b = run_shared_nd(plan, copy_env(env0), backend="fused").env["T"]
        assert np.array_equal(a, b)

    def test_distributed_grid_shift(self):
        g = self._grid()
        cl = Clause(
            IndexSet(Bounds((0, 0), (self.N2 - 1, self.M2 - 2))),
            Ref("T", SeparableMap([IdentityF(), IdentityF()])),
            Ref("S", SeparableMap([IdentityF(), AffineF(1, 1)])) * 2
            + Ref("S", SeparableMap([IdentityF(), IdentityF()])),
        )
        plan = compile_clause_nd_dist(cl, {"T": g, "S": g})
        env0 = self._env()
        ms = run_distributed_nd(plan, copy_env(env0))
        mv = run_distributed_nd(plan, copy_env(env0), backend="fused")
        assert np.array_equal(collect_nd(ms, "T"), collect_nd(mv, "T"))
        assert mv.stats.total_messages() < ms.stats.total_messages()

    def test_distributed_replicated_projected_read(self):
        g = self._grid()
        cl = Clause(
            IndexSet(Bounds((0, 0), (self.N2 - 1, self.M2 - 1))),
            Ref("T", SeparableMap([IdentityF(), IdentityF()])),
            Ref("S", SeparableMap([IdentityF(), IdentityF()]))
            * Ref("x", ProjectedMap((1,), (IdentityF(),))),
        )
        decomps = {"T": g, "S": g, "x": Replicated(self.M2, g.pmax)}
        plan = compile_clause_nd_dist(cl, decomps)
        env0 = self._env()
        ms = run_distributed_nd(plan, copy_env(env0))
        mv = run_distributed_nd(plan, copy_env(env0), backend="fused")
        assert np.array_equal(collect_nd(ms, "T"), collect_nd(mv, "T"))

    def test_distributed_transposed_read(self):
        g = GridDecomposition([Block(self.N2, 2), Block(self.N2, 2)])
        cl = Clause(
            IndexSet(Bounds((0, 0), (self.N2 - 1, self.N2 - 1))),
            Ref("T", SeparableMap([IdentityF(), IdentityF()])),
            Ref("S", ProjectedMap((1, 0), (IdentityF(), IdentityF()))) * 2,
        )
        plan = compile_clause_nd_dist(cl, {"T": g, "S": g})
        rng = np.random.default_rng(3)
        env0 = {"S": rng.random((self.N2, self.N2)),
                "T": np.zeros((self.N2, self.N2))}
        ms = run_distributed_nd(plan, copy_env(env0))
        mv = run_distributed_nd(plan, copy_env(env0), backend="fused")
        assert np.array_equal(collect_nd(ms, "T"), collect_nd(mv, "T"))


class TestOverlapMatchesScalar:
    """The overlap schedule (``fused``) is bit-identical on E13 (block
    and scatter reads) and the E19 2-D five-point stencil."""

    def _e13(self, read_kind):
        n, pmax = 64, 8
        cl = Clause(
            IndexSet(Bounds((1,), (n - 2,))),
            Ref("A", SeparableMap([IdentityF()])),
            Ref("B", SeparableMap([AffineF(1, -1)]))
            + Ref("B", SeparableMap([AffineF(1, 1)])),
        )
        d_b = Block(n, pmax) if read_kind == "block" else Scatter(n, pmax)
        plan = compile_clause(cl, {"A": Block(n, pmax), "B": d_b})
        rng = np.random.default_rng(7)
        env0 = {"A": np.zeros(n), "B": rng.random(n)}
        return plan, env0

    @pytest.mark.parametrize("read_kind", ["block", "scatter"])
    def test_e13_bit_identical(self, read_kind):
        plan, env0 = self._e13(read_kind)
        ref = run_distributed(plan, copy_env(env0)).collect("A")
        out = run_distributed(plan, copy_env(env0),
                              backend="fused").collect("A")
        assert np.array_equal(ref, out)

    def test_e13_block_has_nonempty_interior(self):
        plan, _ = self._e13("block")
        split = plan.ir.interior_split
        assert split is not None
        m, i, b = split.totals()
        assert m == i + b and i > 0 and b > 0

    def test_e13_scatter_interior_is_empty(self):
        # neighbours of a scattered element live on other nodes: every
        # write needs a message, so nothing can be computed early
        plan, _ = self._e13("scatter")
        split = plan.ir.interior_split
        assert split is not None
        assert split.totals()[1] == 0

    def test_e19_grid_bit_identical(self):
        n, p_side = 12, 2

        def sref(di, dj):
            fi = AffineF(1, di) if di else IdentityF()
            fj = AffineF(1, dj) if dj else IdentityF()
            return Ref("S", SeparableMap([fi, fj]))

        cl = Clause(
            IndexSet(Bounds((1, 1), (n - 2, n - 2))),
            Ref("T", SeparableMap([IdentityF(), IdentityF()])),
            BinOp("*", Const(0.25),
                  BinOp("+", BinOp("+", sref(-1, 0), sref(1, 0)),
                        BinOp("+", sref(0, -1), sref(0, 1)))),
        )
        g = GridDecomposition([Block(n, p_side), Block(n, p_side)])
        plan = compile_clause_nd_dist(cl, {"T": g, "S": g})
        rng = np.random.default_rng(8)
        env0 = {"S": rng.random((n, n)), "T": np.zeros((n, n))}
        ref = collect_nd(run_distributed_nd(plan, copy_env(env0)), "T")
        m = run_distributed_nd(plan, copy_env(env0), backend="fused")
        assert np.array_equal(ref, collect_nd(m, "T"))
        split = plan.ir.interior_split
        assert split is not None and split.totals()[1] > 0


class TestFallbacks:
    def test_seq_clause_takes_scalar_path(self):
        cl = Clause(
            IndexSet(Bounds((0,), (N - 2,))),
            Ref("A", SeparableMap([AffineF(1, 1)])),
            Ref("A", SeparableMap([IdentityF()])) * 0.9,
            ordering=SEQ,
        )
        plan = compile_clause(cl, {"A": Block(N, P)})
        env0 = env1d()
        a = run_shared(plan, copy_env(env0)).env["A"]
        b = run_shared(plan, copy_env(env0), backend="fused").env["A"]
        assert np.array_equal(a, b)

    def test_replicated_write_distributed_falls_back(self):
        cl = Clause(
            IndexSet(Bounds((0,), (N - 1,))),
            Ref("r", SeparableMap([IdentityF()])),
            Ref("B", SeparableMap([IdentityF()])) + 1.0,
        )
        decomps = {"r": Replicated(N, P), "B": Block(N, P)}
        plan = compile_clause(cl, decomps)
        env0 = {"r": np.zeros(N), "B": env1d()["B"]}
        a = run_distributed(plan, copy_env(env0)).collect("r")
        b = run_distributed(plan, copy_env(env0),
                            backend="fused").collect("r")
        assert np.array_equal(a, b)

    def test_min_expression_vectorizes(self):
        cl = Clause(
            IndexSet(Bounds((0,), (N - 1,))),
            Ref("A", SeparableMap([IdentityF()])),
            BinOp("min", Ref("B", SeparableMap([IdentityF()])),
                  Ref("C", SeparableMap([IdentityF()]))),
        )
        decomps = {"A": Block(N, P), "B": Scatter(N, P), "C": Block(N, P)}
        plan = compile_clause(cl, decomps)
        env0 = env1d()
        a = run_distributed(plan, copy_env(env0)).collect("A")
        b = run_distributed(plan, copy_env(env0),
                            backend="fused").collect("A")
        assert np.array_equal(a, b)

    def test_whole_program_shared_vector(self):
        from repro.core.clause import Program

        c1, c2 = affine_clause(), guarded_clause()
        program = Program([c1, c2])
        decomps = {name: Block(N, P) for name in "ABC"}
        env0 = env1d()
        ms, bs = run_program_shared(program, decomps, copy_env(env0))
        mv, bv = run_program_shared(program, decomps, copy_env(env0),
                                    backend="fused")
        assert bs == bv
        assert np.array_equal(ms.env["A"], mv.env["A"])


class TestAllBackendsAgree:
    """The fused-backend acceptance property: scalar, fused, mp and mpi
    executions produce bit-identical post-state memories, and the
    batching backends (fused / mp / mpi) exchange exactly the same
    messages, across decomposition kinds.

    The mp backend runs the same kernels on real OS processes — a small
    fixed worker count keeps the hypothesis sweep fast (the pool is
    persistent, so only the first example pays the spawn).  The mpi
    backend is pinned to its
    threaded stub transport here (real ``mpiexec`` would pay a process
    launch per hypothesis example); when even the stub is unavailable
    it degrades to fused, and bit-identity + message parity are
    required either way."""

    @pytest.fixture(scope="class", autouse=True)
    def _mpi_stub(self):
        # exercise the real rank/transport code without mpiexec: the
        # threaded stub world (see tests/test_mpi.py for the full sweep)
        with mpi_stub():
            yield

    @settings(max_examples=40, deadline=None)
    @given(
        wkind=st.sampled_from(sorted(DEC_KINDS)),
        rkind=st.sampled_from(sorted(DEC_KINDS)),
        shift=st.integers(-2, 2),
        scale=st.sampled_from([1, 2]),
        guarded=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_backends_bit_identical(self, wkind, rkind, shift, scale,
                                    guarded, seed):
        lo = max(0, -(shift // scale) if shift < 0 else 0)
        while scale * lo + shift < 0:
            lo += 1
        hi = min(N - 1, (N - 1 - shift) // scale)
        if hi < lo:
            return
        cl = Clause(
            IndexSet(Bounds((lo,), (hi,))),
            Ref("A", SeparableMap([IdentityF()])),
            Ref("B", SeparableMap([AffineF(scale, shift)])) * 0.5
            + Ref("C", SeparableMap([IdentityF()])),
            guard=(Ref("C", SeparableMap([IdentityF()])) > 0.5
                   if guarded else None),
        )
        decomps = {"A": DEC_KINDS[wkind](N), "B": DEC_KINDS[rkind](N),
                   "C": DEC_KINDS[rkind](N)}
        # every tier on both machines: bit-identical to the evaluator,
        # and the batching tiers move exactly the same messages/elements
        check_all_tiers(cl, decomps, env1d(seed))

    def _three_clause_program(self):
        """D := f(A,B); E := g(D); F := h(E) with a redistribution
        boundary at 1->2: E is produced under block but consumed under
        scatter."""
        from repro.core.clause import Program

        c1 = Clause(
            IndexSet(Bounds((0,), (N - 1,))),
            Ref("D", SeparableMap([IdentityF()])),
            Ref("A", SeparableMap([IdentityF()])) * 0.5
            + Ref("B", SeparableMap([IdentityF()])),
            name="c1",
        )
        c2 = Clause(
            IndexSet(Bounds((1,), (N - 1,))),
            Ref("E", SeparableMap([IdentityF()])),
            Ref("D", SeparableMap([AffineF(1, -1)])) * 2.0,
            name="c2",
        )
        c3 = Clause(
            IndexSet(Bounds((0,), (N - 1,))),
            Ref("F", SeparableMap([IdentityF()])),
            Ref("E", SeparableMap([IdentityF()]))
            + Ref("A", SeparableMap([IdentityF()])),
            name="c3",
        )
        block = {n: Block(N, P) for n in "ABDEF"}
        scatter = {n: Scatter(N, P) for n in "ABDEF"}
        return Program([c1, c2, c3]), [block, block, scatter]

    def test_program_backends_bit_identical(self):
        """scalar, fused and mp agree on a 3-clause program with a
        redistribution boundary — with and without elision/fusion."""
        from repro.pipeline import (
            compile_program,
            evaluate_program_reference,
            run_program,
        )

        program, decs = self._three_clause_program()
        rng = np.random.default_rng(12)
        env0 = {n: rng.random(N) for n in "ABDEF"}
        for fuse in (True, False):
            for elide in (True, False):
                pir = compile_program(program, decs, fuse=fuse,
                                      elide=elide)
                if elide:
                    assert any(name == "E"
                               for _, name, _ in pir.redistributions)
                ref = evaluate_program_reference(pir, env0)
                for backend in ("scalar", "fused", "mp"):
                    m, _ = run_program(pir, copy_env(env0),
                                       backend=backend, processes=2)
                    for name in "DEF":
                        assert np.array_equal(m.env[name], ref[name]), \
                            (backend, fuse, elide, name)

    def test_pipelined_time_loop_backends_bit_identical(self):
        """A pipelined repeat(steps) stencil loop with a U<->V swap is
        bit-identical across all backends for both swap parities."""
        from repro.core.clause import Program
        from repro.pipeline import (
            compile_program,
            evaluate_program_reference,
            run_program,
        )

        cl = Clause(
            IndexSet(Bounds((1,), (N - 2,))),
            Ref("V", SeparableMap([IdentityF()])),
            (Ref("U", SeparableMap([AffineF(1, -1)]))
             + Ref("U", SeparableMap([AffineF(1, 1)]))) * 0.5,
            name="step",
        )
        program = Program([cl])
        decomps = {"U": Block(N, P), "V": Block(N, P)}
        rng = np.random.default_rng(13)
        env0 = {"U": rng.random(N), "V": rng.random(N)}
        for steps in (4, 7):
            pir = compile_program(program, decomps, repeat=steps,
                                  swap=(("U", "V"),))
            assert pir.pipelined, pir.pipeline_reason
            ref = evaluate_program_reference(pir, env0)
            for backend in ("scalar", "fused", "mp"):
                m, barriers = run_program(pir, copy_env(env0),
                                          backend=backend, processes=2)
                assert barriers == steps
                for name in "UV":
                    assert np.array_equal(m.env[name], ref[name]), \
                        (backend, steps, name)
