"""The fused backend: compile-once node kernels, the kernel cache, the
dict-memory fallbacks, and strict verifier gating.

Bit-identity of fused results against every other backend lives in
``tests/test_pipeline_equiv.py::TestAllBackendsAgree``; this module
tests the machinery itself.
"""

import numpy as np
import pytest

from repro.codegen.dist_tmpl import run_distributed
from repro.codegen.plan import compile_clause
from repro.codegen.shared_tmpl import run_shared
from repro.core import (
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
from repro.core.expr import BinOp
from repro.decomp import Block, GridDecomposition, Replicated, Scatter
from repro.machine import DistributedMachine
from repro.machine.fused import FusedStrictError, run_shared_fused
from repro.pipeline import (
    clear_plan_cache,
    compile_plan,
    enable_plan_cache,
    kernel_cache_info,
    plan_cache_info,
)
from repro.pipeline.kernels import KernelBuildError, flavor_nodes

from .conftest import IN_PROCESS_TIERS, check_all_tiers

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


def env1d(seed=0):
    rng = np.random.default_rng(seed)
    return {k: rng.random(N) for k in "AB"}


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_plan_cache()
    yield
    clear_plan_cache()
    enable_plan_cache(True)


class TestKernelSource:
    def test_body_is_one_fused_expression(self):
        ir = compile_plan(stencil_clause(), {"A": Block(N, P),
                                             "B": Block(N, P)})
        k = ir.kernels
        assert k is not None
        assert "def _rhs(_i, _r, _s):" in k.source
        # straight-line ufunc calls into scratch slots, one return, no
        # tree-walk helpers
        body = [ln.strip() for ln in k.source.splitlines()
                if ln.startswith("    ")]
        assert body == ["_np.add(_r[0], _r[1], out=_s[0])",
                        "_np.multiply(_s[0], 0.5, out=_s[0])",
                        "return _s[0]"]
        assert len(k.slots) == 1

    def test_min_lowered_to_ufunc_call(self):
        cl = Clause(
            IndexSet(Bounds((0,), (N - 1,))),
            Ref("A", SeparableMap([IdentityF()])),
            BinOp("min", Ref("B", SeparableMap([IdentityF()])),
                  Ref("A", SeparableMap([IdentityF()]))),
        )
        ir = compile_plan(cl, {"A": Block(N, P), "B": Scatter(N, P)})
        assert "_np.minimum" in ir.kernels.source

    def test_guard_gets_its_own_function(self):
        cl = Clause(
            IndexSet(Bounds((0,), (N - 1,))),
            Ref("A", SeparableMap([IdentityF()])),
            Ref("B", SeparableMap([IdentityF()])) * 2,
            guard=Ref("B", SeparableMap([IdentityF()])) > 0.5,
        )
        ir = compile_plan(cl, {"A": Block(N, P), "B": Block(N, P)})
        assert "def _guard(_i, _r, _s):" in ir.kernels.source
        assert ir.kernels.guard is not None

    def test_lower_kernels_is_a_traced_pass(self):
        ir = compile_plan(stencil_clause(), {"A": Block(N, P),
                                             "B": Block(N, P)})
        assert "lower-kernels" in ir.trace.names()
        rec = next(r for r in ir.trace.records
                   if r.name == "lower-kernels")
        assert any("fused kernel" in n for n in rec.notes)


class TestKernelCache:
    def test_structural_recompile_reuses_kernels(self):
        decomps = {"A": Block(N, P), "B": Block(N, P)}
        ir1 = compile_plan(stencil_clause(), decomps)
        before = kernel_cache_info()
        # structurally identical, fresh objects
        ir2 = compile_plan(stencil_clause(), {"A": Block(N, P),
                                              "B": Block(N, P)})
        after = kernel_cache_info()
        assert ir2.kernels is ir1.kernels
        assert after["hits"] >= before["hits"]  # plan-cache clone or kernel hit

    def test_kernel_cache_hit_without_plan_cache_clone(self):
        decomps = {"A": Block(N, P), "B": Block(N, P)}
        compile_plan(stencil_clause(), decomps)
        assert kernel_cache_info()["misses"] >= 1
        # force the plan cache to recompile but keep the kernel cache warm
        from repro.pipeline.cache import plan_cache

        plan_cache._entries.clear()
        ir2 = compile_plan(stencil_clause(), decomps)
        assert kernel_cache_info()["hits"] >= 1
        assert ir2.kernels is not None
        rec = next(r for r in ir2.trace.records
                   if r.name == "lower-kernels")
        assert any("kernel-cache hit" in n for n in rec.notes)

    def test_clear_plan_cache_clears_kernels_too(self):
        compile_plan(stencil_clause(), {"A": Block(N, P), "B": Block(N, P)})
        assert kernel_cache_info()["size"] >= 1
        clear_plan_cache()
        assert kernel_cache_info() == {
            "hits": 0, "misses": 0, "evictions": 0, "size": 0,
            "maxsize": kernel_cache_info()["maxsize"], "bytes": 0,
            "max_bytes": kernel_cache_info()["max_bytes"], "enabled": True,
        }

    def test_disable_plan_cache_disables_kernel_cache(self):
        enable_plan_cache(False)
        assert not kernel_cache_info()["enabled"]
        compile_plan(stencil_clause(), {"A": Block(N, P), "B": Block(N, P)})
        assert kernel_cache_info()["size"] == 0
        enable_plan_cache(True)
        assert plan_cache_info()["enabled"]
        assert kernel_cache_info()["enabled"]


class TestFallbacks:
    def test_seq_clause_has_no_kernels_but_runs(self):
        ir = compile_plan(stencil_clause(SEQ), {"A": Block(N, P),
                                                "B": Block(N, P)})
        assert ir.kernels is None
        rec = next(r for r in ir.trace.records
                   if r.name == "lower-kernels")
        assert any("no fused kernel" in n for n in rec.notes)
        plan = compile_clause(stencil_clause(SEQ), {"A": Block(N, P),
                                                    "B": Block(N, P)})
        env0 = env1d()
        ref = evaluate_clause(stencil_clause(SEQ), copy_env(env0))["A"]
        m = run_shared(plan, copy_env(env0), backend="fused")
        assert np.array_equal(m.env["A"], ref)

    def test_replicated_write_falls_back_with_note(self):
        cl = Clause(
            IndexSet(Bounds((0,), (N - 1,))),
            Ref("r", SeparableMap([IdentityF()])),
            Ref("B", SeparableMap([IdentityF()])) + 1.0,
        )
        decomps = {"r": Replicated(N, P), "B": Block(N, P)}
        plan = compile_clause(cl, decomps)
        k = plan.ir.kernels
        assert k is not None and "replicated write" in k.dist_note
        with pytest.raises(KernelBuildError, match="replicated write"):
            flavor_nodes(plan.ir, "dist")
        env0 = {"r": np.zeros(N), "B": env1d()["B"]}
        ref = evaluate_clause(cl, copy_env(env0))["r"]
        a = run_distributed(plan, copy_env(env0),
                            backend="fused").collect("r")
        assert np.array_equal(a, ref)
        # shared: one kernel call, every node charged its full copy
        check_all_tiers(cl, decomps, env0, tiers=IN_PROCESS_TIERS)

    def test_fused_executor_refuses_without_kernels(self):
        ir = compile_plan(stencil_clause(SEQ), {"A": Block(N, P),
                                                "B": Block(N, P)})
        with pytest.raises(ValueError):
            run_shared_fused(ir, env1d())

    def test_failed_flavor_falls_back_at_run_time(self):
        """A flavor with no fused form is found on its first use: the
        compile keeps the kernels, the run falls back to the scalar
        template with the reason the build failed."""
        plan = compile_clause(stencil_clause(), {"A": Block(N, P),
                                                 "B": Block(N, P)})
        plan.ir.kernels.union_note = "no dense local layout"
        env0 = env1d()
        ref = evaluate_clause(stencil_clause(), copy_env(env0))["A"]
        m = run_shared(plan, copy_env(env0), backend="fused")
        assert np.array_equal(m.env["A"], ref)
        assert any("no dense local layout" in n for n in plan.trace.notes)

    def test_lanes_that_do_not_tile_their_union_fall_back(self):
        """Node lanes that overlap (node 1 claiming node 0's too) do not
        add up to the product of their union: the one-block flavor
        refuses with both counts, and the run falls back to the scalar
        template instead of storing a lane twice."""
        plan = compile_clause(stencil_clause(), {"A": Block(N, P),
                                                 "B": Block(N, P)})
        plan.ir.member_keys(plan.ir.write)[1][0] = slice(1, 12, 1)
        with pytest.raises(KernelBuildError,
                           match="27 lanes do not tile the 22-lane"):
            flavor_nodes(plan.ir, "union")
        env0 = env1d()
        ref = evaluate_clause(stencil_clause(), copy_env(env0))["A"]
        m = run_shared(plan, copy_env(env0), backend="fused")
        assert np.array_equal(m.env["A"], ref)
        assert any("do not tile" in n for n in plan.trace.notes)

    def test_grid_plan_builds_raveled_kernels(self):
        g = GridDecomposition([Block(8, 2), Block(8, 2)])
        cl = Clause(
            IndexSet(Bounds((1, 1), (6, 6))),
            Ref("T", SeparableMap([IdentityF(), IdentityF()])),
            Ref("U", SeparableMap([AffineF(1, -1), IdentityF()])) * 0.5,
        )
        ir = compile_plan(cl, {"T": g, "U": g})
        assert ir.kernels is not None and flavor_nodes(ir, "dist")


class TestStrictGating:
    def racy_plan(self):
        # the write array is read with a shifted access: RACE under //
        cl = Clause(
            IndexSet(Bounds((0,), (N - 2,))),
            Ref("A", SeparableMap([IdentityF()])),
            Ref("A", SeparableMap([AffineF(1, 1)])) * 0.5,
        )
        return compile_clause(cl, {"A": Block(N, P)})

    def test_strict_refuses_with_code_in_message(self):
        plan = self.racy_plan()
        with pytest.raises(FusedStrictError, match="RACE"):
            run_distributed(plan, env1d(), backend="fused", strict=True)
        with pytest.raises(FusedStrictError, match="RACE"):
            run_shared(plan, env1d(), backend="fused", strict=True)

    def test_non_strict_still_runs(self):
        plan = self.racy_plan()
        m = run_distributed(plan, env1d(), backend="fused")
        assert m is not None

    def test_clean_clause_passes_strict(self):
        plan = compile_clause(stencil_clause(), {"A": Block(N, P),
                                                 "B": Block(N, P)})
        env0 = env1d()
        ref = evaluate_clause(stencil_clause(), copy_env(env0))["A"]
        m = run_distributed(plan, copy_env(env0), backend="fused",
                            strict=True)
        assert np.array_equal(m.collect("A"), ref)


class TestFusedCLI:
    @pytest.fixture
    def stencil_prog(self, tmp_path):
        f = tmp_path / "stencil.pal"
        f.write_text(
            "for i := 1 to 22 par do\n"
            "    A[i] := 2 * (B[i - 1] + B[i + 1]);\n"
            "od;\n"
        )
        return str(f)

    @pytest.fixture
    def racy_prog(self, tmp_path):
        f = tmp_path / "racy.pal"
        f.write_text(
            "for i := 0 to 22 par do\n"
            "    A[i] := A[i + 1] * 2;\n"
            "od;\n"
        )
        return str(f)

    def _arrays(self):
        return ["--array", "A=block:24", "--array", "B=block:24"]

    def test_compile_explain_shows_kernel_source(self, stencil_prog, capsys):
        from repro.cli import main

        rc = main(["compile", stencil_prog, "--backend", "fused",
                   "--explain"] + self._arrays())
        out = capsys.readouterr().out
        assert rc == 0
        assert "def _rhs(_i, _r, _s):" in out
        assert "lower-kernels" in out
        # a compile runs no template: every flavor waits for its first use
        assert "shared: built on first use; distributed: built on first " \
               "use; real-process distributed: built on first use" in out

    def test_run_fused_backend(self, stencil_prog, capsys):
        from repro.cli import main

        rc = main(["run", stencil_prog, "--backend", "fused"]
                  + self._arrays())
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_run_fused_strict_refuses_racy(self, racy_prog, capsys):
        from repro.cli import main

        rc = main(["run", racy_prog, "--backend", "fused", "--strict",
                   "--array", "A=block:24"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "RACE" in err

    def test_unified_cache_stats(self, stencil_prog, capsys):
        from repro.cli import main

        clear_plan_cache()
        rc = main(["compile", stencil_prog, "--cache-stats"]
                  + self._arrays())
        out = capsys.readouterr().out
        assert rc == 0
        assert "caches:" in out
        for line in ("plan:", "table1:", "kernel:"):
            assert line in out

    def test_cache_stats_text_and_json_agree(self, stencil_prog, capsys):
        """The text block prints the ``shm`` and ``node_memory`` rows of
        the snapshot ``--json`` emits, value for value."""
        import json

        from repro.cli import main

        m = DistributedMachine(4)  # some node memory: non-zero counters
        m.place("A", np.ones(1 << 12), Block(1 << 12, 4))
        main(["compile", stencil_prog, "--cache-stats"] + self._arrays())
        text = capsys.readouterr().out
        main(["compile", stencil_prog, "--cache-stats", "--json"]
             + self._arrays())
        snap = json.loads(capsys.readouterr().out)
        assert snap["node_memory"]["leases"] > 0
        for key in ("shm", "node_memory"):
            row, = [ln for ln in text.splitlines()
                    if ln.strip().startswith(key + ":")]
            fields = dict(kv.split("=") for kv in row.split(":", 1)[1].split())
            assert {k: int(v) for k, v in fields.items()} == snap[key]


# ---------------------------------------------------------------------------
# lower what runs: each flavor is built on its first use
# ---------------------------------------------------------------------------

ROTATE = ("for i := 0 to 255 par do\n"
          "    A[i] := B[(i + 5) mod 256] * 2;\nod;\n",
          "distribute A[256](blockscatter(4)) on 4;\n"
          "distribute B[256](blockscatter(4)) on 4;\n")
CHAIN = ("for i := 1 to 254 par do\n"
         "    V[i] := U[i - 1] + 3 * U[i] + U[i + 1];\nod;\n"
         "for i := 1 to 254 par do\n"
         "    W[i] := V[i - 1] + V[i] + V[i + 1];\nod;\n",
         "".join(f"distribute {x}[256](block) on 4;\n" for x in "UVW"))


class TestLowerWhatRuns:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Every ``(local, dist)`` flavor shape built while armed —
        ``"union"`` for the one-block shared flavor; a ``dist=True``
        build raises (the executor would fall back)."""
        from repro.pipeline import kernels

        seen, real = [], kernels._build_nodes

        def build(ir, local, dist, used, union=False):
            seen.append("union" if union else (local, dist))
            if dist:
                raise AssertionError("a distributed flavor was built")
            return real(ir, local, dist, used, union=union)

        monkeypatch.setattr(kernels, "_build_nodes", build)
        return seen

    @pytest.mark.parametrize("text", [ROTATE, CHAIN], ids=["rotate", "chain"])
    def test_compile_verify_run_fused_never_build_dist(self, text, builds):
        """A cold compile and verify build no node kernels (the verifier
        proves on keys); the shared ``run_program`` then builds the
        one-block ``union`` flavor only — never the per-node ``shared``
        lane plans real processes install — bit-identical to the
        evaluator, no fallback."""
        from repro.analysis import verify_program
        from repro.cacheinfo import clear_all_caches
        from repro.core import evaluate_program
        from repro.decomp.spec import parse_spec
        from repro.frontend import translate_source
        from repro.pipeline import compile_program, run_program

        clear_all_caches()
        source, spec = text
        program, decomps = translate_source(source, {}), parse_spec(spec)
        rng = np.random.default_rng(4)
        env = {name: rng.random(dec.n) for name, dec in decomps.items()}
        expected = evaluate_program(program, copy_env(env))
        pir = compile_program(program, decomps)
        assert builds == []  # the compile built no node kernels at all
        assert verify_program(pir).ok
        assert builds == []  # ... and neither did the verification
        for st in pir.steps:
            assert st.ir.kernels.built() == {}
        machine, _ = run_program(pir, copy_env(env), backend="fused")
        for name, want in expected.items():
            assert np.array_equal(machine.env[name], want)
        assert set(builds) == {"union"}
        assert not pir.trace.notes
        for st in pir.steps:
            assert set(st.ir.kernels.built()) == {"union"}
            assert not st.ir.trace.notes

    def test_pre_placed_e19_never_builds_shared(self, monkeypatch):
        from repro.codegen.nddist import collect_nd, compile_clause_nd_dist, \
            run_distributed_nd
        from repro.machine import DistributedMachine
        from repro.pipeline import kernels

        seen, real = [], kernels._build_nodes

        def build(ir, local, dist, used):
            seen.append((local, dist))
            if not dist:
                raise AssertionError("the shared flavor was built")
            return real(ir, local, dist, used)

        monkeypatch.setattr(kernels, "_build_nodes", build)
        n, g = 12, GridDecomposition([Block(12, 2), Block(12, 2)])

        def s(di, dj):
            return Ref("S", SeparableMap([AffineF(1, di), AffineF(1, dj)]))

        cl = Clause(IndexSet(Bounds((1, 1), (n - 2, n - 2))),
                    Ref("T", SeparableMap([IdentityF(), IdentityF()])),
                    (s(-1, 0) + s(1, 0) + s(0, -1) + s(0, 1)) * 0.25)
        rng = np.random.default_rng(2)
        env = {"S": rng.random((n, n)), "T": rng.random((n, n))}
        want = evaluate_clause(cl, copy_env(env))["T"]
        plan = compile_clause_nd_dist(cl, {"S": g, "T": g})
        m = DistributedMachine(4)
        for name in "ST":
            m.place(name, env[name], g)
        for _ in range(3):
            run_distributed_nd(plan, None, machine=m, backend="fused")
        assert np.array_equal(collect_nd(m, "T"), want)
        assert seen == [(True, True)] and not plan.trace.notes
        assert set(plan.kernels.built()) == {"dist"}


def e19(n, src="S", dst="T"):
    def s(di, dj):
        return Ref(src, SeparableMap([AffineF(1, di), AffineF(1, dj)]))

    return Clause(IndexSet(Bounds((1, 1), (n - 2, n - 2))),
                  Ref(dst, SeparableMap([IdentityF(), IdentityF()])),
                  (s(-1, 0) + s(1, 0) + s(0, -1) + s(0, 1)) * 0.25)


class TestScratchSlots:
    def test_warm_fused_time_loop_takes_no_page_faults(self):
        """Every kernel call writes into this thread's scratch slots, so
        a warm in-process E19 time loop at 384^2 allocates no temporary
        a step: under 5 minor faults per step (one 1.1 MiB temporary per
        operator, given back to the OS each step, cost ~560) — as one
        `union` block a clause, and as `dist` nodes whose blocks run as
        flat spans over their ghost frames."""
        import resource
        from unittest import mock

        from repro.core.clause import Program
        from repro.pipeline.region import Region
        from repro.pipeline import compile_program, run_program

        n, steps = 384, 10
        g = GridDecomposition([Block(n, 2), Block(n, 2)])
        pir = compile_program(Program([e19(n)]), {"S": g, "T": g},
                              repeat=steps, swap=(("S", "T"),))
        rng = np.random.default_rng(0)
        env = {"S": rng.random((n, n)), "T": np.zeros((n, n))}
        run_program(pir, copy_env(env), backend="fused")  # warm
        envs = [copy_env(env) for _ in range(3)]
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for e in envs:
            run_program(pir, e, backend="fused")
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults / (3 * steps) < 5, faults
        assert not pir.trace.notes
        # the same stencil as `dist` nodes over their own ghost frames on
        # one pre-placed machine: each node's block runs as flat spans
        from repro.codegen.nddist import compile_clause_nd_dist

        plans = [compile_clause_nd_dist(e19(n, *pair), {"S": g, "T": g})
                 for pair in (("S", "T"), ("T", "S"))]
        m = run_distributed(plans[0], env, backend="fused")
        for plan in plans:  # warm: both frames, both kernels
            run_distributed(plan, None, machine=m, backend="fused")
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(steps):
            run_distributed(plans[0], None, machine=m, backend="fused")
            run_distributed(plans[1], None, machine=m, backend="fused")
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults / (2 * steps) < 5, faults
        cut, cuts = Region.span, []
        with mock.patch.object(Region, "span", lambda self, arr, length: (
                cuts.append(length), cut(self, arr, length))[1]):
            run_distributed(plans[0], None, machine=m, backend="fused")
        assert len(cuts) == 4 * 4  # every read of every node's block

    def test_every_block_carves_one_buffer_per_thread(self):
        """Slot sets of every shape — nd and span — are views of one
        buffer per thread, memoized per spec until it grows, so a thread
        holds its largest slot set, not the sum of all it has used."""
        import threading

        from repro.pipeline.kernels import scratch

        f8, b1 = np.dtype(np.float64), np.dtype(bool)
        big = ((f8, (40, 40)), (b1, (40, 1)))
        small = ((f8, (3, 5)),)
        failures = []

        def fresh_thread():  # an arena nothing has grown yet
            try:
                a, b = scratch(big), scratch(small)
                assert scratch(big) is a and scratch(small) is b
                assert [x.shape for x in a] == [(40, 40), (40, 1)]
                assert a[1].dtype == b1
                assert np.shares_memory(a[0], b[0])  # one buffer
                assert not np.shares_memory(a[0], a[1])
                # a span slot set: 4 rows of 7 lanes at pitch 9
                flat, nd = scratch(((f8, (4, 7)),), (4, 9))
                assert flat[0].shape == (3 * 9 + 7,)
                assert nd[0].shape == (4, 7)
                assert np.shares_memory(flat[0], a[0])
                nd[0][...] = 1.0
                assert flat[0][[0, 6, 9, 33]].tolist() == [1.0] * 4
                grown = scratch(((f8, (80, 80)),))
                assert not np.shares_memory(grown[0], a[0])
                again = scratch(small)  # re-carved from the new buffer
                assert again is not b
                assert np.shares_memory(again[0], grown[0])
            except BaseException as e:  # reported by the main thread
                failures.append(e)

        t = threading.Thread(target=fresh_thread)
        t.start()
        t.join(timeout=30)
        assert not t.is_alive() and not failures, failures

    def test_threads_running_kernels_own_their_slots(self):
        """Two threads run fused clauses in a loop — each its own, with
        its own slot shapes, and both the same grid stencil, whose slot
        shapes they share — each through its own arena, and stay
        bit-identical to the evaluator."""
        import threading

        n = 96
        g = GridDecomposition([Block(n, 2), Block(n, 2)])
        grid = (e19(n), {"S": g, "T": g})
        guarded = (Clause(
            IndexSet(Bounds((1,), (4 * n - 2,))),
            Ref("A", SeparableMap([IdentityF()])),
            (Ref("B", SeparableMap([AffineF(1, -1)]))
             - Ref("B", SeparableMap([AffineF(1, 1)]))) * 3.0,
            guard=Ref("B", SeparableMap([IdentityF()])) > 0.5),
            {"A": Block(4 * n, P), "B": Scatter(4 * n, P)})
        failures = []

        def loop(cl, decomps, seed):
            from repro.codegen.nddist import compile_clause_nd_dist

            rng = np.random.default_rng(seed)
            env = {k: rng.random(n * 4 if cl.domain.dim == 1 else (n, n))
                   for k in decomps}
            want = evaluate_clause(cl, copy_env(env))[cl.lhs.name]
            compile_ = compile_clause if cl.domain.dim == 1 \
                else compile_clause_nd_dist
            try:
                plan = compile_(cl, decomps)
                for _ in range(30):
                    got = (run_shared(plan, copy_env(env),
                                      backend="fused").env[cl.lhs.name],
                           run_distributed(plan, copy_env(env),
                                           backend="fused")
                           .collect(cl.lhs.name))
                    for g_ in got:
                        assert np.array_equal(g_.view(np.uint64),
                                              want.view(np.uint64))
                assert not plan.trace.notes
            except BaseException as e:  # reported by the main thread
                failures.append(e)

        threads = [threading.Thread(target=loop, args=(*case, seed))
                   for seed, case in enumerate((grid, guarded, grid))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures, failures
