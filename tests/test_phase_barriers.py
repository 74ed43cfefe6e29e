"""One wait per clause on real processes, where the region algebra
proves it safe.

:func:`repro.analysis.phase_barriers` decides per clause whether the
pre-commit (phase) barrier of the real-process schedule may be skipped;
:func:`repro.analysis.check_schedule` certifies every elided wait again
from the node kernels; the pool's barrier is a shared-memory generation
count.  Covered here: the certificate (kept, elided, forced), the wait
counts, bit-identity at 1, 2 and 4 workers, a worker killed while its
peer waits at the new barrier, and blame for a worker that hangs in a
kernel.
"""

import multiprocessing
import os
import signal
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
    compile_clause,
    copy_env,
    shutdown_runtime,
)
from repro.analysis import (
    PhaseBarrier,
    check_schedule,
    phase_barriers,
    verify_program,
)
from repro.core import AffineF, IdentityF
from repro.core.clause import Program
from repro.machine.fused import FusedStrictError
from repro.machine.shared import SharedMachine
from repro.pipeline import compile_program, run_program
from repro.runtime import (
    active_segments,
    get_pool,
    run_distributed_mp,
    run_program_mp,
    runtime_info,
)
from repro.runtime.exec import _certify
from repro.runtime.lowering import lower_dist, lower_shared

from .conftest import mpi_stub, own_shm_segments

N, P, STEPS = 24, 4, 100


@pytest.fixture(scope="module", autouse=True)
def runtime_teardown():
    yield
    shutdown_runtime()


def _ref(name, shift):
    return Ref(name, SeparableMap([AffineF(1, shift) if shift
                                   else IdentityF()]))


def self_overlap_plan():
    """``A[i] := A[i-1] + A[i+1]`` on Block: nodes read their
    neighbours' writes of ``A``."""
    clause = Clause(IndexSet.range1d(1, N - 2), _ref("A", 0),
                    _ref("A", -1) + _ref("A", 1))
    return compile_clause(clause, {"A": Block(N, P)})


def e13_plan():
    clause = Clause(IndexSet.range1d(1, N - 2), _ref("A", 0),
                    _ref("B", -1) + _ref("B", 1))
    return compile_clause(clause, {"A": Block(N, P), "B": Block(N, P)})


def e19_loop(n=64, steps=STEPS):
    grid = grid2x2(n)
    return compile_program(Program([e19_clause(n)]), {"S": grid, "T": grid},
                           repeat=steps, swap=(("S", "T"),))


def e19_env(n=64, seed=0):
    rng = np.random.default_rng(seed)
    return {"S": rng.random((n, n)), "T": np.zeros((n, n))}


def _force(monkeypatch, kept: bool):
    """Every clause's phase barrier decided *kept* by hand."""
    monkeypatch.setattr(
        "repro.analysis.phase_barriers",
        lambda progs, flags: tuple(PhaseBarrier(kept, "by hand")
                                   for _ in progs))


class TestCertificate:
    def test_e19_loop_certifies_with_one_wait_per_step(self):
        pir = e19_loop()
        cert = verify_program(pir).certificate
        assert cert.ok
        assert (cert.barriers, cert.phase_barriers) == (STEPS, 0)
        assert not pir.phase[0].kept
        assert "phase barrier elided" in pir.describe()
        # a verify-cache hit records the certified decision too
        hit = e19_loop()
        hit.phase = ()
        assert verify_program(hit).certificate is cert
        assert hit.phase == pir.phase

    def test_self_overlapping_clause_keeps_its_phase_barrier(self):
        prog = lower_shared(self_overlap_plan().ir)
        (decision,) = phase_barriers([prog], [True])
        assert decision.kept
        assert "reads element" in decision.why and "'A'" in decision.why
        _, cert = check_schedule([prog], flags=[True], phase=[True])
        assert cert.ok and cert.phase_barriers == 1

    def test_forced_elision_denies_the_certificate(self):
        prog = lower_shared(self_overlap_plan().ir)
        diags, cert = check_schedule([prog], flags=[True], phase=[False])
        assert not cert.ok and cert.codes == ("SCHED002",)
        assert any("pre-commit barrier elided" in d.message
                   and "reads element" in d.message for d in diags)

    def test_strict_refuses_a_forced_elision(self, monkeypatch):
        _force(monkeypatch, kept=False)
        prog = lower_shared(self_overlap_plan().ir)
        with pytest.raises(FusedStrictError, match="SCHED002"):
            _certify([prog], True, (True,), 1)
        # through the public entry point on both launches, on a
        # RACE-clean clause whose schedule sends: the launch is refused,
        # with the same text, before any worker or rank runs
        shutdown_runtime()
        env = {"A": np.zeros(N), "B": np.arange(N, dtype=float)}
        for launch in ("mp", "mpi"):
            with mpi_stub(), pytest.raises(FusedStrictError) as err:
                run_distributed_mp(e13_plan().ir, env, strict=True,
                                   processes=2, launch=launch)
            assert str(err.value) == (
                "execution refused under --strict: schedule certificate "
                "denied (SCHED002) — clause0: pre-commit barrier elided, "
                "but the program moves messages (node 0 sends or expects "
                "one) — a commit can race a read"), launch
        assert runtime_info() == {}  # no worker was spawned

    def test_sending_schedule_and_fused_boundary_keep_the_wait(self):
        dist = lower_dist(e13_plan().ir)
        assert phase_barriers([dist], [True])[0].kept
        shared = lower_shared(e13_plan().ir)
        assert not phase_barriers([shared], [True])[0].kept
        # the preceding boundary (here the wrap-around) has no barrier
        kept = phase_barriers([shared, shared], [True, False])
        assert kept[0].kept and "boundary 1->0" in kept[0].why
        assert not kept[1].kept


class TestWaits:
    def test_e19_loop_waits_once_per_step(self, monkeypatch):
        pir = e19_loop()
        env = e19_env()

        def run():
            return run_program_mp(pir, SharedMachine(pir.pmax, copy_env(env)),
                                  processes=2)

        m, barriers = run()
        assert [w.barrier_waits for w in m.runtime_stats] == [99, 99]
        assert sum(s.barriers for s in m.stats) == 4 * STEPS
        assert "99 wait(s)" in m.runtime_stats[0].describe()
        _force(monkeypatch, kept=True)
        kept, barriers_kept = run()
        assert [w.barrier_waits for w in kept.runtime_stats] == [199, 199]
        assert sum(s.barriers for s in kept.stats) == 4 * STEPS
        assert barriers_kept == barriers
        for name in "ST":
            assert np.array_equal(kept.env[name], m.env[name])

    @pytest.mark.parametrize("processes", [1, 2, 4])
    def test_loop_is_bit_identical_to_fused(self, processes):
        pir, env = e19_loop(), e19_env(seed=processes)
        want, _ = run_program(pir, copy_env(env), backend="fused")
        got, _ = run_program(pir, copy_env(env), backend="mp",
                             processes=processes)
        for name in "ST":
            assert np.array_equal(got.env[name], want.env[name])


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


class TestFaultsAtTheBarrier:
    def test_killed_peer_of_a_waiting_worker(self):
        pir, env = e19_loop(), e19_env(seed=7)
        want, _ = run_program(pir, copy_env(env), backend="fused")
        run_program_mp(pir, SharedMachine(pir.pmax, copy_env(env)),
                       processes=2)  # warm
        pool = get_pool(2)
        before = pool.pids()

        def killer():
            for _ in range(800):
                (ph0, _, _), (ph1, _, _) = pool.phases()
                if ph0 == "end-barrier" and ph1 == "fault-delay":
                    os.kill(before[1], signal.SIGKILL)
                    return
                time.sleep(0.01)

        t = threading.Thread(target=killer)
        t.start()
        t0 = time.monotonic()
        with pytest.raises(WorkerCrashError) as err:
            run_program_mp(pir, SharedMachine(pir.pmax, copy_env(env)),
                           processes=2, _fault=(1, 8.0))
        t.join()
        assert time.monotonic() - t0 < 30.0
        assert err.value.rank == 1
        assert "[SCHED certificate" in str(err.value)
        assert all(_gone(pid) for pid in before)
        assert active_segments() == frozenset()
        assert own_shm_segments() == set()
        got, _ = run_program(pir, copy_env(env), backend="mp", processes=2)
        for name in "ST":
            assert np.array_equal(got.env[name], want.env[name])


class TestBlame:
    def test_a_worker_hung_in_a_kernel_is_blamed(self, monkeypatch):
        """Rank 1 sleeps inside its first kernel call; rank 0 times out
        at the end-of-clause barrier.  Blame goes to the laggard by
        (clause sequence, phase), not to the waiter."""
        import repro.runtime.worker as worker

        real = worker.region_entry

        def slow_entry(*args):
            entry = real(*args)

            def run(*a):
                if multiprocessing.current_process().name == "repro-mp-w1":
                    time.sleep(5.0)
                return entry(*a)
            return run

        shutdown_runtime()
        monkeypatch.setattr(worker, "region_entry", slow_entry)
        pool = get_pool(2)
        spawns = pool.spawns
        try:
            pir, env = e19_loop(steps=4), e19_env()
            t0 = time.monotonic()
            with pytest.raises(WorkerCrashError) as err:
                run_program_mp(pir, SharedMachine(pir.pmax, copy_env(env)),
                               processes=2, timeout=1.0)
            assert time.monotonic() - t0 < 30.0
            assert err.value.rank == 1
            assert err.value.phase == "boundary"
            assert "w1=boundary@n1#0" in str(err.value)
            assert pool.spawns == spawns + 1 and pool.alive()
        finally:
            shutdown_runtime()
