"""Tests for the multi-process SPMD runtime (``backend="mp"``).

Covers the acceptance bar of the runtime subsystem: bit-identity with
the in-process fused backend (same kernels, same counters), persistent
pool reuse, crash and timeout detection (a killed or hung worker raises
:class:`WorkerCrashError`, never a hang), self-healing recovery, stats
aggregation, strict verifier gating, resource disposal, and the backend
registry surfaced through the CLI.
"""

import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from benchmarks.ledger.stencils import e19_clause, grid2x2
from repro import (
    Block,
    Clause,
    IndexSet,
    Ref,
    SeparableMap,
    WorkerCrashError,
    clear_plan_cache,
    compile_clause,
    copy_env,
    evaluate_clause,
    run_distributed,
    run_shared,
    shutdown_runtime,
)
from repro.backends import UnknownBackendError, backend_names
from repro.cacheinfo import cache_stats
from repro.cli import main
from repro.codegen.nddist import (
    collect_nd,
    compile_clause_nd_dist,
    run_distributed_nd,
)
from repro.core import AffineF, Bounds, Const, IdentityF
from repro.core.clause import Program
from repro.core.expr import BinOp
from repro.decomp import GridDecomposition
from repro.machine.fused import FusedStrictError
from repro.machine.shared import SharedMachine
from repro.pipeline import compile_program, run_program
from repro.runtime import (
    active_segments,
    get_pool,
    run_distributed_mp,
    run_program_mp,
    run_shared_mp,
    runtime_info,
)
from repro.runtime.shm import ARENA

from .conftest import own_shm_segments

N, P = 48, 4


def stencil_clause():
    return Clause(
        IndexSet(Bounds((1,), (N - 2,))),
        Ref("A", SeparableMap([IdentityF()])),
        (Ref("B", SeparableMap([AffineF(1, -1)]))
         + Ref("B", SeparableMap([AffineF(1, 1)]))) * 0.5,
    )


def stencil_plan():
    return compile_clause(stencil_clause(), {"A": Block(N, P),
                                             "B": Block(N, P)})


def env1d(seed=0):
    rng = np.random.default_rng(seed)
    return {k: rng.random(N) for k in "AB"}


def grid_clause(n):
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


@pytest.fixture(scope="module", autouse=True)
def runtime_teardown():
    yield
    shutdown_runtime()


def _counters(machine):
    s = machine.stats
    return (s.total_messages(), s.total_elements_moved(),
            s.total_updates())


class TestBitIdentity:
    """mp executes the *same* compiled kernels as fused over the same
    lane vectors, so results must match bit for bit — and the counters
    must match count for count."""

    def test_distributed_matches_fused(self):
        plan, env0 = stencil_plan(), env1d()
        mf = run_distributed(plan, copy_env(env0), backend="fused")
        mm = run_distributed(plan, copy_env(env0), backend="mp")
        assert np.array_equal(mf.collect("A"), mm.collect("A"))
        assert _counters(mf) == _counters(mm)

    def test_shared_matches_fused(self):
        plan, env0 = stencil_plan(), env1d()
        mf = run_shared(plan, copy_env(env0), backend="fused")
        mm = run_shared(plan, copy_env(env0), backend="mp")
        assert np.array_equal(mf.env["A"], mm.env["A"])

    def test_nd_grid_matches_fused(self):
        n = 24
        g = GridDecomposition([Block(n, 2), Block(n, 2)])
        plan = compile_clause_nd_dist(grid_clause(n), {"T": g, "S": g})
        rng = np.random.default_rng(3)
        env0 = {"S": rng.random((n, n)), "T": np.zeros((n, n))}
        mf = run_distributed_nd(plan, copy_env(env0), backend="fused")
        mm = run_distributed_nd(plan, copy_env(env0), backend="mp")
        assert np.array_equal(collect_nd(mf, "T"), collect_nd(mm, "T"))
        assert _counters(mf) == _counters(mm)

    def test_matches_sequential_reference(self):
        plan, env0 = stencil_plan(), env1d(9)
        ref = evaluate_clause(stencil_clause(), copy_env(env0))["A"]
        mm = run_distributed(plan, copy_env(env0), backend="mp")
        assert np.array_equal(mm.collect("A"), ref)


class TestPoolReuse:
    """The pool is the process-level analogue of the plan cache: spawned
    once per worker count and reused run after run."""

    def test_same_workers_across_runs(self):
        plan, env0 = stencil_plan(), env1d()
        m1 = run_distributed(plan, copy_env(env0), backend="mp",
                             processes=P)
        m2 = run_distributed(plan, copy_env(env0), backend="mp",
                             processes=P)
        pids1 = [s.pid for s in m1.runtime_stats]
        pids2 = [s.pid for s in m2.runtime_stats]
        assert pids1 == pids2
        assert get_pool(P) is get_pool(P)
        info = runtime_info()
        assert info[P]["installed"] >= 1

    def test_node_multiplexing(self):
        # fewer processes than nodes: nodes go round-robin, results and
        # aggregate counters unchanged
        plan, env0 = stencil_plan(), env1d(5)
        mf = run_distributed(plan, copy_env(env0), backend="fused")
        mm = run_distributed(plan, copy_env(env0), backend="mp",
                             processes=2)
        assert np.array_equal(mf.collect("A"), mm.collect("A"))
        assert _counters(mf) == _counters(mm)
        assert len(mm.runtime_stats) == 2
        assert sorted(p for s in mm.runtime_stats for p in s.nodes) \
            == list(range(P))


class TestRobustness:
    """A dead or hung worker must surface as WorkerCrashError naming the
    worker and phase — never as a hang — and the pool must self-heal."""

    def test_timeout_raises_and_names_laggard(self):
        plan, env0 = stencil_plan(), env1d()
        t0 = time.monotonic()
        with pytest.raises(WorkerCrashError) as err:
            run_distributed_mp(plan.ir, copy_env(env0), processes=P,
                               timeout=0.5, _fault=(1, 8.0))
        assert time.monotonic() - t0 < 30.0
        assert err.value.rank == 1
        assert err.value.phase == "fault-delay"
        # the pool respawned: the next run succeeds
        m = run_distributed_mp(plan.ir, copy_env(env0), processes=P)
        ref = evaluate_clause(stencil_clause(), copy_env(env0))["A"]
        assert np.array_equal(m.collect("A"), ref)

    def test_killed_worker_raises_and_pool_recovers(self):
        plan, env0 = stencil_plan(), env1d()
        run_distributed_mp(plan.ir, copy_env(env0), processes=P)  # warm
        pool = get_pool(P)
        before = pool.pids()

        def killer():
            for _ in range(800):
                if pool.phases()[1][0] == "fault-delay":
                    os.kill(pool.pids()[1], signal.SIGKILL)
                    return
                time.sleep(0.01)

        t = threading.Thread(target=killer)
        t.start()
        t0 = time.monotonic()
        with pytest.raises(WorkerCrashError) as err:
            run_distributed_mp(plan.ir, copy_env(env0), processes=P,
                               _fault=(1, 8.0))
        t.join()
        assert time.monotonic() - t0 < 30.0
        assert err.value.rank == 1
        # self-heal: fresh workers, correct results
        assert pool.pids() != before
        m = run_distributed_mp(plan.ir, copy_env(env0), processes=P)
        ref = evaluate_clause(stencil_clause(), copy_env(env0))["A"]
        assert np.array_equal(m.collect("A"), ref)


class TestStatsAggregation:
    def test_worker_stats_sum_to_machine_counters(self):
        plan, env0 = stencil_plan(), env1d(2)
        mm = run_distributed(plan, copy_env(env0), backend="mp",
                             processes=P)
        assert len(mm.runtime_stats) == P
        assert sum(s.send_count for s in mm.runtime_stats) \
            == mm.stats.total_messages()
        assert sum(s.recv_count for s in mm.runtime_stats) \
            == mm.stats.total_messages()
        assert sum(s.recv_bytes for s in mm.runtime_stats) \
            == 8 * mm.stats.total_elements_moved()
        for s in mm.runtime_stats:
            assert s.total_s > 0.0
            assert s.kernel_s >= 0.0
            assert "worker" in s.describe()


class TestStrictGating:
    def test_mp_refuses_racy_clause_under_strict(self):
        cl = Clause(
            IndexSet(Bounds((0,), (N - 2,))),
            Ref("A", SeparableMap([IdentityF()])),
            Ref("A", SeparableMap([AffineF(1, 1)])) * 0.5,
        )
        plan = compile_clause(cl, {"A": Block(N, P)})
        env0 = {"A": np.random.default_rng(0).random(N)}
        with pytest.raises(FusedStrictError, match="RACE"):
            run_distributed(plan, copy_env(env0), backend="mp",
                            strict=True)
        with pytest.raises(FusedStrictError, match="RACE"):
            run_shared(plan, copy_env(env0), backend="mp", strict=True)


class TestDisposal:
    def test_shutdown_runtime_releases_everything(self):
        plan, env0 = stencil_plan(), env1d()
        run_distributed(plan, copy_env(env0), backend="mp")
        assert runtime_info()
        shutdown_runtime()
        assert runtime_info() == {}
        assert active_segments() == frozenset()
        assert own_shm_segments() == set()

    def test_clear_plan_cache_disposes_runtime(self):
        plan, env0 = stencil_plan(), env1d()
        run_distributed(plan, copy_env(env0), backend="mp")
        assert runtime_info()
        clear_plan_cache()
        assert runtime_info() == {}

    def test_pool_revives_after_shutdown(self):
        plan, env0 = stencil_plan(), env1d()
        shutdown_runtime()
        m = run_distributed(plan, copy_env(env0), backend="mp")
        ref = evaluate_clause(stencil_clause(), copy_env(env0))["A"]
        assert np.array_equal(m.collect("A"), ref)


def e19_loop(n, steps):
    grid = grid2x2(n)
    return compile_program(Program([e19_clause(n)]), {"S": grid, "T": grid},
                           repeat=steps, swap=(("S", "T"),))


def e19_env(n, seed):
    rng = np.random.default_rng(seed)
    return {k: rng.random((n, n)) for k in "ST"}


def run_e19_mp(pir, env, **kw):
    machine, _ = run_program_mp(pir, SharedMachine(pir.pmax, copy_env(env)),
                                processes=2, **kw)
    return machine


def assert_bits_match_fused(pir, env, got):
    want, _ = run_program(pir, copy_env(env), backend="fused")
    for name in "ST":
        assert np.array_equal(got.env[name].view(np.uint64),
                              want.env[name].view(np.uint64)), name


class TestArena:
    """The pool-lifetime arena: a warm run reuses its segments and the
    workers' mappings of them; only memory survives a run, never data."""

    def test_warm_runs_see_their_own_inputs_in_the_same_segments(self):
        specs = []
        for seed, steps in enumerate((3, 4, 3)):
            pir, env = e19_loop(64, steps), e19_env(64, seed)
            assert_bits_match_fused(pir, env, run_e19_mp(pir, env))
            specs.append(ARENA.spec())
        assert specs[0] == specs[1] == specs[2]
        assert cache_stats()["shm"] == {"segments": 2,
                                        "bytes": 2 * 64 * 64 * 8}

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                        reason="segments are not files on this platform")
    def test_the_leak_scan_sees_the_segments_this_process_holds(self):
        run_e19_mp(e19_loop(64, 2), e19_env(64, 0))
        held = active_segments()
        assert len(held) == 2 and held <= own_shm_segments()

    def test_a_resized_array_gets_a_new_segment(self):
        run_e19_mp(e19_loop(64, 2), e19_env(64, 0))
        old = active_segments()
        pir, env = e19_loop(96, 2), e19_env(96, 1)
        assert_bits_match_fused(pir, env, run_e19_mp(pir, env))
        assert len(active_segments()) == 2
        assert not old & (active_segments() | own_shm_segments())

    def test_arrays_a_run_does_not_name_are_unlinked(self):
        run_e19_mp(e19_loop(64, 2), e19_env(64, 0))
        old = active_segments()
        plan, env0 = stencil_plan(), env1d(4)
        mm = run_shared(plan, copy_env(env0), backend="mp", processes=2)
        ref = evaluate_clause(stencil_clause(), copy_env(env0))["A"]
        assert np.array_equal(mm.env["A"], ref)
        assert sorted(ARENA.views) == ["A", "B"]
        assert not old & (active_segments() | own_shm_segments())

    def test_a_timed_out_run_releases_the_arena(self):
        pir, env = e19_loop(64, 3), e19_env(64, 2)
        run_e19_mp(pir, env)
        with pytest.raises(WorkerCrashError):
            run_e19_mp(pir, env, timeout=0.5, _fault=(1, 8.0))
        assert active_segments() == frozenset()
        assert cache_stats()["shm"] == {"segments": 0, "bytes": 0}
        assert_bits_match_fused(pir, env, run_e19_mp(pir, env))

    def test_two_threads_queue_on_the_arena(self):
        runs = [(e19_loop(64, 3), e19_env(64, 5)),
                (e19_loop(96, 4), e19_env(96, 6))]
        got, errors = {}, []

        def body(k):
            try:
                for _ in range(3):
                    got[k] = run_e19_mp(*runs[k])
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=body, args=(k,)) for k in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        for k, (pir, env) in enumerate(runs):
            assert_bits_match_fused(pir, env, got[k])

    def test_warm_workers_fault_in_a_tenth_of_the_cold_pages(self):
        pir, env = e19_loop(384, 100), e19_env(384, 0)
        shutdown_runtime()
        cold = run_e19_mp(pir, env).runtime_stats
        warm = run_e19_mp(pir, env).runtime_stats
        assert len(cold) == len(warm) == 2
        for c, w in zip(cold, warm):
            assert w.minflt * 10 <= c.minflt, (c.minflt, w.minflt)
            assert f"minflt {w.minflt}" in w.describe()


PROGRAM = """
for i := 1 to n - 2 par do
    A[i] := B[i - 1] + B[i + 1];
od
"""


@pytest.fixture
def prog_file(tmp_path):
    f = tmp_path / "prog.pal"
    f.write_text(PROGRAM)
    return str(f)


def _run_args(prog_file, *extra):
    return ["run", prog_file, "--pmax", "4",
            "--array", f"A=block:{N}", "--array", f"B=block:{N}",
            "--param", f"n={N}"] + list(extra)


class TestBackendRegistryCLI:
    def test_registry_lists_all_backends(self):
        assert backend_names() == ("scalar", "fused", "mp", "mpi")

    def test_unknown_backend_is_one_line_error(self):
        plan, env0 = stencil_plan(), env1d()
        with pytest.raises(UnknownBackendError) as err:
            run_distributed(plan, copy_env(env0), backend="gpu")
        msg = str(err.value)
        assert "\n" not in msg
        assert "gpu" in msg
        for name in backend_names():
            assert name in msg

    def test_cli_rejects_unknown_backend(self, prog_file):
        with pytest.raises(SystemExit) as err:
            main(_run_args(prog_file, "--backend", "cuda"))
        msg = str(err.value.code)
        assert msg.startswith("error: unknown backend 'cuda'")
        assert "\n" not in msg

    def test_cli_run_mp_with_stats(self, prog_file, capsys):
        rc = main(_run_args(prog_file, "--backend", "mp",
                            "--processes", "4", "--stats"))
        out = capsys.readouterr().out
        assert rc == 0
        assert "OK" in out
        assert "worker 0" in out
        assert "kernel" in out
        assert "minflt" in out

    def test_cli_run_mp_shared(self, prog_file, capsys):
        rc = main(_run_args(prog_file, "--backend", "mp", "--shared",
                            "--stats"))
        out = capsys.readouterr().out
        assert rc == 0
        assert "OK" in out
        assert "worker 0" in out


# ---------------------------------------------------------------------------
# numeric env knobs: one reader, malformed values never escape
# ---------------------------------------------------------------------------

def _read_knob(name):
    from repro.pipeline.cache import PlanCache, _env_number
    from repro.pipeline.kernels import KernelCache
    from repro.runtime.exec import _nprocs

    return {
        "REPRO_CACHE_SIZE": lambda: PlanCache().maxsize,
        "REPRO_CACHE_BYTES": lambda: KernelCache().max_bytes,
        "REPRO_MP_PROCESSES": lambda: _nprocs(None, 64),
        "REPRO_MPI_RANKS": lambda: _nprocs(None, 64, "REPRO_MPI_RANKS"),
        # read once, when repro.runtime.pool is imported
        "REPRO_MP_TIMEOUT": lambda: _env_number("REPRO_MP_TIMEOUT", 60.0,
                                                float),
    }[name]()


@pytest.mark.parametrize("name", [
    "REPRO_CACHE_SIZE", "REPRO_CACHE_BYTES", "REPRO_MP_PROCESSES",
    "REPRO_MPI_RANKS", "REPRO_MP_TIMEOUT"])
def test_malformed_numeric_env_means_the_default(monkeypatch, name):
    monkeypatch.delenv(name, raising=False)
    default = _read_knob(name)
    for raw in ("abc", "", "1e"):
        monkeypatch.setenv(name, raw)
        assert _read_knob(name) == default
    monkeypatch.setenv(name, "3")
    assert _read_knob(name) == 3
    monkeypatch.setenv(name, "-2")  # below the smallest useful value
    assert _read_knob(name) == 1


def test_mp_run_survives_a_malformed_process_count(monkeypatch):
    monkeypatch.setenv("REPRO_MP_PROCESSES", "abc")
    plan, env0 = stencil_plan(), env1d(3)
    ref = evaluate_clause(stencil_clause(), copy_env(env0))
    m = run_shared(plan, copy_env(env0), backend="mp")
    assert np.array_equal(m.env["A"], ref["A"])
    assert m.runtime_stats


def test_env_var_bounds_cache_size(monkeypatch):
    """``REPRO_CACHE_SIZE=1``: storing a second kernel entry evicts the
    first."""
    from repro.pipeline import compile_plan
    from repro.pipeline.kernels import KernelCache

    monkeypatch.setenv("REPRO_CACHE_SIZE", "1")
    kc = KernelCache()
    assert kc.maxsize == 1
    decomps = {"A": Block(N, P), "B": Block(N, P)}
    scaled = Clause(IndexSet(Bounds((0,), (N - 1,))),
                    Ref("A", SeparableMap([IdentityF()])),
                    Ref("B", SeparableMap([IdentityF()])) * 2.0)
    kc.store(("a",), compile_plan(stencil_clause(), decomps).kernels)
    kc.store(("b",), compile_plan(scaled, decomps).kernels)
    assert kc.info()["evictions"] == 1 and kc.info()["size"] == 1


def test_payload_carries_only_the_workers_own_nodes():
    """An install payload is ``(token, flavor, source, nreads, write,
    nodes)``; the nodes that ride the pipe are the plan's own node
    kernels, round-robin ``node % nprocs``."""
    from repro.pipeline.kernels import flavor_nodes
    from repro.runtime.lowering import lower_dist

    plan = stencil_plan()
    prog = lower_dist(plan.ir)
    payload = prog.payload_for(0, 2)
    assert payload[:5] == (prog.token, "dist", plan.ir.kernels.source,
                           prog.nreads, "A")
    assert [nd.p for nd in payload[5]] == [0, 2]
    gdist = flavor_nodes(plan.ir, "gdist")
    assert all(nd is gdist[nd.p] for nd in payload[5])


def test_send_buffers_are_reused_per_step():
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
