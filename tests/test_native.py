"""The native (njit) kernel tier: support probe, scalar-loop codegen,
executors, fallback semantics, cache lifecycle, the mp worker path, and
the CLI surface.

numba is optional, so almost everything here runs under
``REPRO_NATIVE_INTERP=1`` — the generated scalar loop executes as
exec-compiled Python, which exercises the whole native stack (codegen,
dispatch, cache, workers) bit-for-bit without a JIT.  Fallback tests run
under ``REPRO_NO_NATIVE=1``.  Bit-identity against every other backend
also lives in ``tests/test_pipeline_equiv.py::TestAllBackendsAgree``.
"""

import numpy as np
import pytest

from repro.codegen.dist_tmpl import run_distributed
from repro.codegen.nddist import (
    collect_nd,
    compile_clause_nd_dist,
    run_distributed_nd,
)
from repro.codegen.plan import compile_clause
from repro.codegen.shared_tmpl import run_shared
from repro.core import (
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
from repro.decomp import Block, GridDecomposition, Scatter
from repro.machine.fused import FusedStrictError
from repro.pipeline import (
    NativeBuildError,
    clear_plan_cache,
    compile_plan,
    native_cache_info,
    native_support,
    render_native_source,
    reset_native_stats,
    reset_native_support,
)
from repro.pipeline.kernels import KernelCache, kernel_cache
from repro.runtime import shutdown_runtime

N, P = 24, 4


def stencil_clause(ordering=None):
    kw = {} if ordering is None else {"ordering": ordering}
    return Clause(
        IndexSet(Bounds((1,), (N - 2,))),
        Ref("A", SeparableMap([IdentityF()])),
        (Ref("B", SeparableMap([AffineF(1, -1)]))
         + Ref("B", SeparableMap([AffineF(1, 1)]))) * 0.5,
        **kw,
    )


def guarded_clause():
    return Clause(
        IndexSet(Bounds((0,), (N - 1,))),
        Ref("A", SeparableMap([IdentityF()])),
        Ref("B", SeparableMap([IdentityF()])) * 2.0,
        guard=Ref("B", SeparableMap([IdentityF()])) > 0.5,
    )


def env1d(seed=0):
    rng = np.random.default_rng(seed)
    return {k: rng.random(N) for k in "AB"}


def block_decomps():
    return {"A": Block(N, P), "B": Block(N, P)}


@pytest.fixture(autouse=True)
def fresh_state(monkeypatch):
    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    monkeypatch.delenv("REPRO_NATIVE_INTERP", raising=False)
    reset_native_support()
    reset_native_stats()
    clear_plan_cache()
    yield
    clear_plan_cache()
    reset_native_support()


@pytest.fixture
def interp(monkeypatch):
    """Run the native tier as exec-compiled Python (no numba needed)."""
    monkeypatch.setenv("REPRO_NATIVE_INTERP", "1")
    reset_native_support()


@pytest.fixture
def no_native(monkeypatch):
    """Force the probe to report the tier unavailable."""
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    reset_native_support()


class TestSupportProbe:
    def test_disabled_by_env(self, no_native):
        sup = native_support()
        assert not sup.available
        assert sup.mode == "none"
        assert "REPRO_NO_NATIVE" in sup.reason

    def test_interp_mode(self, interp):
        sup = native_support()
        assert sup.available
        assert sup.mode == "interp"
        assert "testing" in sup.reason

    def test_default_probe_is_njit_or_absent(self):
        sup = native_support()
        assert sup.mode in ("njit", "none")
        if sup.mode == "njit":
            assert sup.available and sup.version
        else:
            assert "numba" in sup.reason

    def test_probe_is_cached_until_reset(self, monkeypatch):
        sup = native_support()
        assert native_support() is sup
        # flipping the env without a reset changes nothing...
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        assert native_support() is sup
        # ...a reset re-probes
        reset_native_support()
        assert not native_support().available


class TestSourceRendering:
    def test_scalar_loop_shape(self):
        src = render_native_source(stencil_clause())
        assert "def _kernel(_i, _r, _lanes, _scatter, _out):" in src
        assert "for _t in range(_scatter.shape[0]):" in src
        assert "_out[_scatter[_t]] =" in src
        assert src.rstrip().endswith("return _m")

    def test_guard_folds_into_the_loop(self):
        src = render_native_source(guarded_clause())
        lines = src.splitlines()
        (guard_line,) = [ln for ln in lines if ln.strip().startswith("if ")]
        store_line = next(ln for ln in lines if "_out[_scatter" in ln)
        # the store is nested one level under the guard
        assert len(store_line) - len(store_line.lstrip()) \
            > len(guard_line) - len(guard_line.lstrip())

    def test_minmax_keep_nan_semantics(self):
        cl = Clause(
            IndexSet(Bounds((0,), (N - 1,))),
            Ref("A", SeparableMap([IdentityF()])),
            BinOp("min", Ref("B", SeparableMap([IdentityF()])),
                  BinOp("max", Ref("A", SeparableMap([IdentityF()])),
                        Const(0.0))),
        )
        src = render_native_source(cl)
        assert "_np.minimum(" in src
        assert "_np.maximum(" in src

    def test_logical_ops_are_non_short_circuit_forms(self):
        cl = Clause(
            IndexSet(Bounds((0,), (N - 1,))),
            Ref("A", SeparableMap([IdentityF()])),
            Ref("B", SeparableMap([IdentityF()])),
            guard=BinOp("and",
                        Ref("B", SeparableMap([IdentityF()])) > 0.25,
                        Ref("B", SeparableMap([IdentityF()])) < 0.75),
        )
        src = render_native_source(cl)
        assert "!= 0 and" in src

    def test_unknown_expression_node_raises(self):
        from repro.pipeline.native import _render_scalar

        with pytest.raises(NativeBuildError, match="no scalar source"):
            _render_scalar(object(), {})


@pytest.mark.usefixtures("interp")
class TestInterpBitIdentity:
    def test_shared_matches_reference(self):
        plan = compile_clause(stencil_clause(), block_decomps())
        env0 = env1d()
        ref = evaluate_clause(stencil_clause(), copy_env(env0))["A"]
        m = run_shared(plan, copy_env(env0), backend="native")
        assert np.array_equal(m.env["A"], ref)
        nat = plan.ir.kernels.native
        assert nat is not None and nat.mode == "interp"

    def test_distributed_matches_fused_with_message_parity(self):
        decomps = {"A": Block(N, P), "B": Scatter(N, P)}
        plan = compile_clause(stencil_clause(), decomps)
        env0 = env1d(3)
        mf = run_distributed(plan, copy_env(env0), backend="fused")
        mn = run_distributed(plan, copy_env(env0), backend="native")
        assert np.array_equal(mf.collect("A"), mn.collect("A"))
        assert mf.stats.total_messages() == mn.stats.total_messages()
        assert mf.stats.total_elements_moved() \
            == mn.stats.total_elements_moved()
        assert mf.stats.total_updates() == mn.stats.total_updates()

    def test_guarded_clause_counts_only_stored_lanes(self):
        plan = compile_clause(guarded_clause(), block_decomps())
        env0 = env1d(7)
        ref = evaluate_clause(guarded_clause(), copy_env(env0))["A"]
        m = run_shared(plan, copy_env(env0), backend="native")
        assert np.array_equal(m.env["A"], ref)
        expected = int((env0["B"] > 0.5).sum())
        assert sum(s.local_updates for s in m.stats) == expected

    def test_grid_2d_matches_fused(self):
        n = 16
        g = GridDecomposition([Block(n, 2), Block(n, 2)])

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
        plan = compile_clause_nd_dist(cl, {"T": g, "S": g})
        rng = np.random.default_rng(5)
        env0 = {"S": rng.random((n, n)), "T": np.zeros((n, n))}
        mf = run_distributed_nd(plan, copy_env(env0), backend="fused")
        mn = run_distributed_nd(plan, copy_env(env0), backend="native")
        assert np.array_equal(collect_nd(mf, "T"), collect_nd(mn, "T"))

    def test_program_group_runs_native(self):
        from repro.core.clause import Program
        from repro.pipeline import compile_program, run_program

        def _ref(name, b=0):
            f = IdentityF() if b == 0 else AffineF(1, b)
            return Ref(name, SeparableMap([f]))

        program = Program([
            Clause(IndexSet(Bounds((0,), (N - 1,))), _ref("B"),
                   _ref("A") * 2.0, name="c1"),
            Clause(IndexSet(Bounds((0,), (N - 1,))), _ref("C"),
                   _ref("B") * 0.5, name="c2"),
        ])
        decomps = {n: Block(N, P) for n in "ABC"}
        pir = compile_program(program, decomps)
        rng = np.random.default_rng(11)
        env0 = {n: rng.random(N) for n in "ABC"}
        mf, _ = run_program(pir, copy_env(env0), backend="fused")
        mn, _ = run_program(pir, copy_env(env0), backend="native")
        for name in "BC":
            assert np.array_equal(mf.env[name], mn.env[name])


class TestFallbacks:
    def test_no_numba_degrades_with_trace_note(self, no_native):
        plan = compile_clause(stencil_clause(), block_decomps())
        env0 = env1d()
        ref = evaluate_clause(stencil_clause(), copy_env(env0))["A"]
        m = run_shared(plan, copy_env(env0), backend="native")
        assert np.array_equal(m.env["A"], ref)
        assert any("backend='native' fell back to the fused path" in n
                   for n in plan.trace.notes)
        md = run_distributed(plan, copy_env(env0), backend="native")
        assert np.array_equal(md.collect("A"), ref)
        assert plan.ir.kernels.native is None

    def test_seq_clause_notes_and_runs(self, interp):
        plan = compile_clause(stencil_clause(SEQ), block_decomps())
        env0 = env1d()
        ref = evaluate_clause(stencil_clause(SEQ), copy_env(env0))["A"]
        m = run_shared(plan, copy_env(env0), backend="native")
        assert np.array_equal(m.env["A"], ref)
        assert any("backend='native' fell back" in n
                   for n in plan.trace.notes)

    def test_non_contiguous_write_target_falls_back(self, interp):
        # SharedMachine.__init__ casts to float64 but preserves strides,
        # so a strided view is the reachable no-flat-view case
        from repro.machine.shared import SharedMachine

        plan = compile_clause(stencil_clause(), block_decomps())
        env0 = env1d()
        env0["A"] = np.zeros(2 * N)[::2]
        machine = SharedMachine(plan.pmax, env0)
        assert not machine.env["A"].flags.c_contiguous
        ref = evaluate_clause(stencil_clause(), copy_env(env0))["A"]
        m = run_shared(plan, env0, backend="native", machine=machine)
        assert np.array_equal(m.env["A"], ref)
        assert any("C-contiguous" in n for n in plan.trace.notes)

    def test_build_failure_reason_is_cached(self, no_native):
        ir = compile_plan(stencil_clause(), block_decomps())
        from repro.pipeline import ensure_native

        with pytest.raises(NativeBuildError):
            ensure_native(ir.kernels, ir)
        assert ir.kernels.native_note is not None
        before = native_cache_info()["failures"]
        # the cached reason is re-raised without re-attempting the build
        with pytest.raises(NativeBuildError, match="REPRO_NO_NATIVE"):
            ensure_native(ir.kernels, ir)
        assert native_cache_info()["failures"] == before

    def test_strict_verdicts_are_not_swallowed(self, interp):
        cl = Clause(
            IndexSet(Bounds((0,), (N - 2,))),
            Ref("A", SeparableMap([IdentityF()])),
            Ref("A", SeparableMap([AffineF(1, 1)])) * 0.5,
        )
        plan = compile_clause(cl, {"A": Block(N, P)})
        with pytest.raises(FusedStrictError, match="RACE"):
            run_shared(plan, env1d(), backend="native", strict=True)
        with pytest.raises(FusedStrictError, match="RACE"):
            run_distributed(plan, env1d(), backend="native", strict=True)


@pytest.mark.usefixtures("interp")
class TestCacheLifecycle:
    def test_native_tier_rides_the_kernel_cache(self):
        plan1 = compile_clause(stencil_clause(), block_decomps())
        run_shared(plan1, env1d(), backend="native")
        assert native_cache_info()["builds"] == 1
        # structurally identical recompile: same kernels, same native tier
        plan2 = compile_clause(stencil_clause(), block_decomps())
        run_shared(plan2, env1d(), backend="native")
        assert plan2.ir.kernels.native is plan1.ir.kernels.native
        assert native_cache_info()["builds"] == 1
        assert native_cache_info()["hits"] >= 1

    def test_clear_plan_cache_disposes_dispatchers(self):
        plan = compile_clause(stencil_clause(), block_decomps())
        run_shared(plan, env1d(), backend="native")
        k = plan.ir.kernels
        assert k.native is not None
        clear_plan_cache()
        assert k.native is None
        assert native_cache_info()["disposed"] == 1
        # a fresh compile + run recompiles cleanly
        plan2 = compile_clause(stencil_clause(), block_decomps())
        env0 = env1d()
        ref = evaluate_clause(stencil_clause(), copy_env(env0))["A"]
        m = run_shared(plan2, copy_env(env0), backend="native")
        assert np.array_equal(m.env["A"], ref)
        assert native_cache_info()["builds"] == 2

    def test_lru_eviction_disposes_and_recompiles(self):
        old = kernel_cache.maxsize
        kernel_cache.maxsize = 1
        try:
            planA = compile_clause(stencil_clause(), block_decomps())
            run_shared(planA, env1d(), backend="native")
            kA = planA.ir.kernels
            assert kA.native is not None
            # a structurally different plan evicts A's entry
            planB = compile_clause(guarded_clause(), block_decomps())
            run_shared(planB, env1d(), backend="native")
            assert kA.native is None
            assert native_cache_info()["disposed"] >= 1
            # running A again rebuilds its native tier cleanly
            env0 = env1d()
            ref = evaluate_clause(stencil_clause(), copy_env(env0))["A"]
            m = run_shared(planA, copy_env(env0), backend="native")
            assert np.array_equal(m.env["A"], ref)
        finally:
            kernel_cache.maxsize = old

    def test_env_var_bounds_cache_size(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_SIZE", "1")
        kc = KernelCache()
        assert kc.maxsize == 1
        irA = compile_plan(stencil_clause(), block_decomps())
        irB = compile_plan(guarded_clause(), block_decomps())
        from repro.pipeline import ensure_native

        ensure_native(irA.kernels, irA)
        ensure_native(irB.kernels, irB)
        kc.store(("a",), irA.kernels)
        kc.store(("b",), irB.kernels)
        assert kc.info()["evictions"] == 1
        assert irA.kernels.native is None       # evicted + disposed
        assert irB.kernels.native is not None   # survivor keeps its tier


class TestMpRuntime:
    @pytest.fixture(autouse=True)
    def fresh_pool(self):
        # workers inherit the env at spawn: force a fresh pool per test
        shutdown_runtime()
        yield
        shutdown_runtime()

    def test_payload_carries_native_source(self, interp):
        from repro.runtime.lowering import lower_dist

        ir = compile_plan(stencil_clause(), block_decomps())
        prog = lower_dist(ir)
        assert isinstance(prog.native_source, str)
        assert "def _kernel" in prog.native_source
        payload = prog.payload_for(0, 2)
        assert len(payload) == 7
        assert payload[-1] is prog.native_source
        # the nodes that ride the pipe are the plan's own node kernels
        assert [nd.p for nd in payload[5]] == [0, 2]
        assert all(nd is ir.kernels.gdist[nd.p] for nd in payload[5])

    def test_mp_native_bit_identity_and_stats_flag(self, interp):
        plan = compile_clause(stencil_clause(), block_decomps())
        env0 = env1d(2)
        mf = run_distributed(plan, copy_env(env0), backend="fused")
        mm = run_distributed(plan, copy_env(env0), backend="mp",
                             processes=2)
        assert np.array_equal(mf.collect("A"), mm.collect("A"))
        assert mf.stats.total_messages() == mm.stats.total_messages()
        assert all(s.native for s in mm.runtime_stats)
        assert "[native]" in mm.runtime_stats[0].describe()

    def test_mp_without_native_keeps_numpy_kernels(self, no_native):
        plan = compile_clause(stencil_clause(), block_decomps())
        env0 = env1d(2)
        mf = run_distributed(plan, copy_env(env0), backend="fused")
        mm = run_distributed(plan, copy_env(env0), backend="mp",
                             processes=2)
        assert np.array_equal(mf.collect("A"), mm.collect("A"))
        assert not any(s.native for s in mm.runtime_stats)

    def test_send_buffers_are_reused_per_step(self):
        from types import SimpleNamespace

        from repro.runtime.worker import QueueTransport

        inbox = SimpleNamespace(sent=[])
        inbox.put = inbox.sent.append
        transport = QueueTransport(0, 1, [inbox], None, [0, 0])
        transport.rid = (1, 0)
        inst = SimpleNamespace(bufs={})
        b1 = transport.send(inst, 0, 0, 1, np.arange(3.0))
        b2 = transport.send(inst, 0, 0, 1, np.arange(3.0) + 5)
        assert b1 is b2 and np.array_equal(b2, [5.0, 6.0, 7.0])
        assert [m[:4] for m in inbox.sent] == [((1, 0), 1, 0, 0)] * 2
        # another (read, peer) slot gets its own buffer
        assert transport.send(inst, 0, 1, 1, np.arange(3.0)) is not b1
        # ...and so does another installed program
        other = SimpleNamespace(bufs={})
        assert transport.send(other, 0, 0, 1, np.arange(3.0)) is not b1

    def test_native_lane_vectors_cached_per_block(self):
        """The njit adaptor's lane vectors are built once per block (on
        its regions), whatever the step count."""
        from repro.runtime.lowering import lower_dist

        ir = compile_plan(stencil_clause(), block_decomps())
        blk = lower_dist(ir).nodes[1].interior
        vecs = blk.loop.index_vectors()
        assert vecs is blk.loop.index_vectors()
        assert blk.write.flat((N,)) is blk.write.flat((N,))
        assert all(v.dtype == np.int64 and v.flags.c_contiguous
                   for v in vecs)


class TestNativeCLI:
    @pytest.fixture
    def stencil_prog(self, tmp_path):
        f = tmp_path / "stencil.pal"
        f.write_text(
            "for i := 1 to 22 par do\n"
            "    A[i] := 2 * (B[i - 1] + B[i + 1]);\n"
            "od;\n"
        )
        return str(f)

    def _arrays(self):
        return ["--array", "A=block:24", "--array", "B=block:24"]

    def test_explain_shows_probe_and_kernel_source(self, interp,
                                                   stencil_prog, capsys):
        from repro.cli import main

        rc = main(["compile", stencil_prog, "--backend", "native",
                   "--explain"] + self._arrays())
        out = capsys.readouterr().out
        assert rc == 0
        assert "# native tier: available=True mode=interp" in out
        assert "def _kernel(_i, _r, _lanes, _scatter, _out):" in out

    def test_explain_reports_unavailable_tier(self, no_native,
                                              stencil_prog, capsys):
        from repro.cli import main

        rc = main(["compile", stencil_prog, "--backend", "native",
                   "--explain"] + self._arrays())
        out = capsys.readouterr().out
        assert rc == 0
        assert "# native tier: available=False" in out
        assert "# native kernel unavailable" in out

    def test_cache_stats_has_native_line(self, stencil_prog, capsys):
        from repro.cli import main

        rc = main(["compile", stencil_prog, "--cache-stats"]
                  + self._arrays())
        out = capsys.readouterr().out
        assert rc == 0
        assert "native:" in out
        assert "jit" in out

    def test_run_native_ok(self, interp, stencil_prog, capsys):
        from repro.cli import main

        rc = main(["run", stencil_prog, "--backend", "native"]
                  + self._arrays())
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_run_native_prints_fallback_note(self, no_native,
                                             stencil_prog, capsys):
        from repro.cli import main

        rc = main(["run", stencil_prog, "--backend", "native"]
                  + self._arrays())
        captured = capsys.readouterr()
        assert rc == 0
        assert "OK" in captured.out
        assert "native tier unavailable" in captured.err
