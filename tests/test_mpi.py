"""Tests for the MPI SPMD backend (``backend="mpi"``).

Covers the acceptance bar of the subsystem: the support probe and its
env knobs, the (run, dst, src, pos) tag encoding and its portable-bound
guard, bit-identity with the fused backend over the stub transport at
P in {1, 2, 4} (clause, grid, shared, and whole pipelined programs with
buffer swaps) including message-count parity, strict verifier gating,
fault injection (an aborted rank surfaces as :class:`MpiRankError`
naming phase and rank and citing the schedule certificate — and leaves
no stray threads, shm segments, or mpiexec children), the mpiexec
launcher protocol against a fake launcher (failure, timeout via
process-group kill, missing results, jobdir cleanup), the trace-noted
fused fallback when MPI is unavailable, the calibration fits, and the
CLI surface.

Everything here runs without mpi4py or mpiexec installed: the stub
transport executes the *same* rank code over threads, and the launcher
tests use a fake ``mpiexec`` via ``$REPRO_MPIEXEC``.
"""

import json
import os
import shutil
import subprocess
import tempfile
import threading
import time
import types

import numpy as np
import pytest

from repro import (
    Block,
    Clause,
    IndexSet,
    Ref,
    SeparableMap,
    compile_clause,
    copy_env,
    evaluate_clause,
    run_distributed,
    run_shared,
)
from repro.backends import backend_availability
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
from repro.machine.calibrate import (
    MachineDescription,
    fit_alpha_beta,
    load_machine,
    measure_t_element,
)
from repro.machine.fused import FusedStrictError
from repro.mpi import mpi_support, reset_mpi_support
from repro.mpi.launcher import (
    MAX_PORTABLE_TAG,
    MPI,
    MpiLaunchError,
    MpiRankError,
    MpiUnavailableError,
    _guard_tags,
    launch_job,
)
from repro.mpi.rank import TAG_SEQ_WINDOW, MpiJob, encode_tag, max_tag
from repro.mpi.support import find_launcher
from repro.runtime import active_segments
from repro.runtime.exec import _nprocs, run_distributed_mp

from .conftest import own_shm_segments

N, P = 48, 4


@pytest.fixture
def stub_mode(monkeypatch):
    """Force the threaded stub transport (same rank code, no mpi4py)."""
    monkeypatch.setenv("REPRO_MPI_STUB", "1")
    monkeypatch.delenv("REPRO_NO_MPI", raising=False)
    reset_mpi_support()
    yield
    monkeypatch.undo()
    reset_mpi_support()


@pytest.fixture
def no_mpi(monkeypatch):
    """Force the backend unavailable (fused-fallback path)."""
    monkeypatch.setenv("REPRO_NO_MPI", "1")
    monkeypatch.delenv("REPRO_MPI_STUB", raising=False)
    reset_mpi_support()
    yield
    monkeypatch.undo()
    reset_mpi_support()


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


def _counters(machine):
    s = machine.stats
    return (s.total_messages(), s.total_elements_moved(),
            s.total_updates())


class TestSupportProbe:
    def test_no_mpi_env_disables(self, no_mpi):
        sup = mpi_support()
        assert not sup.available
        assert "REPRO_NO_MPI" in sup.reason
        av = backend_availability("mpi")
        assert not av.available and av.backend == "mpi"

    def test_stub_mode(self, stub_mode):
        sup = mpi_support()
        assert sup.available and sup.mode == "stub"
        av = backend_availability("mpi")
        assert av.available and av.mode == "stub"

    def test_default_probe_is_consistent(self):
        reset_mpi_support()
        sup = mpi_support()
        assert sup.mode in ("mpi4py", "stub", "none")
        assert sup.available == (sup.mode != "none")
        assert mpi_support() is sup          # cached
        reset_mpi_support()
        assert mpi_support() is not sup      # and resettable

    def test_launcher_env_override(self, monkeypatch, tmp_path):
        fake = tmp_path / "mpiexec"
        fake.write_text("#!/bin/sh\nexit 0\n")
        fake.chmod(0o755)
        monkeypatch.setenv("REPRO_MPIEXEC", str(fake))
        assert find_launcher() == str(fake)


class TestTagEncoding:
    def test_tags_unique_within_window(self):
        pmax, nreads = 4, 3
        seen = set()
        for seq in range(TAG_SEQ_WINDOW):
            for dst in range(pmax):
                for src in range(pmax):
                    for pos in range(nreads):
                        t = encode_tag(seq, dst, src, pos, pmax, nreads)
                        assert t >= 0
                        seen.add(t)
        assert len(seen) == TAG_SEQ_WINDOW * pmax * pmax * nreads
        assert max(seen) == max_tag(pmax, nreads)

    def test_acceptance_shapes_fit_portable_bound(self):
        # E13/E19 at P <= 8 with a handful of reads must fit the
        # MPI-guaranteed minimum tag space
        assert max_tag(8, 5) <= MAX_PORTABLE_TAG

    def test_guard_rejects_oversized_tag_space(self):
        big = types.SimpleNamespace(pmax=64, nreads=9)
        with pytest.raises(MpiUnavailableError, match="tag space"):
            _guard_tags([big])
        ok = types.SimpleNamespace(pmax=8, nreads=4)
        _guard_tags([ok])  # no raise

    def test_nranks_resolution(self, monkeypatch):
        assert _nprocs(None, 4, MPI.knob) == 4
        assert _nprocs(None, 32, MPI.knob) == 8        # default ceiling
        assert _nprocs(16, 4, MPI.knob) == 4           # clamped to pmax
        assert _nprocs(2, 4, MPI.knob) == 2
        monkeypatch.setenv("REPRO_MPI_RANKS", "3")
        assert _nprocs(None, 8, MPI.knob) == 3


class TestStubBitIdentity:
    """The stub transport runs the real rank code (overlap schedule,
    tags, allgather) on threads — results and counters must match the
    fused backend bit for bit and count for count."""

    @pytest.mark.parametrize("nranks", [1, 2, 4])
    def test_distributed_matches_fused(self, stub_mode, nranks):
        plan, env0 = stencil_plan(), env1d()
        mf = run_distributed(plan, copy_env(env0), backend="fused")
        mm = run_distributed(plan, copy_env(env0), backend="mpi",
                             processes=nranks)
        assert getattr(mm, "is_mpi", False), "fell back instead of mpi"
        assert mm.mode == "stub" and mm.nranks == nranks
        assert np.array_equal(mf.collect("A"), mm.collect("A"))
        assert _counters(mf) == _counters(mm)

    @pytest.mark.parametrize("nranks", [1, 2, 4])
    def test_nd_grid_matches_fused(self, stub_mode, nranks):
        n = 24
        g = GridDecomposition([Block(n, 2), Block(n, 2)])
        plan = compile_clause_nd_dist(grid_clause(n), {"T": g, "S": g})
        rng = np.random.default_rng(3)
        env0 = {"S": rng.random((n, n)), "T": np.zeros((n, n))}
        mf = run_distributed_nd(plan, copy_env(env0), backend="fused")
        mm = run_distributed_nd(plan, copy_env(env0), backend="mpi",
                                processes=nranks)
        assert getattr(mm, "is_mpi", False)
        assert np.array_equal(collect_nd(mf, "T"), collect_nd(mm, "T"))
        assert _counters(mf) == _counters(mm)

    def test_shared_matches_fused(self, stub_mode):
        plan, env0 = stencil_plan(), env1d()
        mf = run_shared(plan, copy_env(env0), backend="fused")
        mm = run_shared(plan, copy_env(env0), backend="mpi")
        assert np.array_equal(mf.env["A"], mm.env["A"])

    def test_matches_sequential_reference(self, stub_mode):
        plan, env0 = stencil_plan(), env1d(9)
        ref = evaluate_clause(stencil_clause(), copy_env(env0))["A"]
        mm = run_distributed(plan, copy_env(env0), backend="mpi")
        assert np.array_equal(mm.collect("A"), ref)

    @pytest.mark.parametrize("nranks", [1, 2, 4])
    @pytest.mark.parametrize("repeat", [1, 2, 10])
    def test_pipelined_program_with_swap(self, stub_mode, nranks,
                                         repeat):
        from repro.pipeline import (
            compile_program,
            evaluate_program_reference,
            run_program,
        )

        cl = Clause(
            IndexSet(Bounds((1,), (N - 2,))),
            Ref("U", SeparableMap([IdentityF()])),
            (Ref("V", SeparableMap([AffineF(1, -1)]))
             + Ref("V", SeparableMap([AffineF(1, 1)]))) * 0.5,
        )
        decomps = {"U": Block(N, P), "V": Block(N, P)}
        pir = compile_program(Program([cl]), decomps, repeat=repeat,
                              swap=[("U", "V")])
        assert pir.pipelined or repeat == 1
        env0 = {"U": np.zeros(N),
                "V": np.random.default_rng(7).random(N)}
        ref = evaluate_program_reference(pir, copy_env(env0))
        mfe, bf = run_program(pir, copy_env(env0), backend="fused")
        mme, bm = run_program(pir, copy_env(env0), backend="mpi",
                              processes=nranks)
        assert bf == bm
        for name in ("U", "V"):
            assert np.array_equal(mfe.env[name], mme.env[name]), name
            assert np.allclose(mme.env[name], ref[name]), name


@pytest.mark.parametrize("workload", ["e13", "e19", "loop"])
def test_the_probed_transport_matches_fused_at_four_ranks(monkeypatch,
                                                          workload):
    """On the transport the probe picks — real ``mpiexec`` ranks where
    mpi4py and a launcher are installed, the stub otherwise — P = 4
    runs of the E13 clause, the E19 grid clause and a 20-step pipelined
    loop are bit-identical to fused, never fall back, and the clauses
    move exactly fused's messages."""
    from repro.pipeline import compile_program, run_program

    reset_mpi_support()
    if not mpi_support().available:
        monkeypatch.setenv("REPRO_MPI_STUB", "1")
        monkeypatch.delenv("REPRO_NO_MPI", raising=False)
        reset_mpi_support()
    try:
        mode = mpi_support().mode
        if workload == "loop":
            cl = Clause(
                IndexSet(Bounds((1,), (N - 2,))),
                Ref("U", SeparableMap([IdentityF()])),
                (Ref("V", SeparableMap([AffineF(1, -1)]))
                 + Ref("V", SeparableMap([AffineF(1, 1)]))) * 0.5,
            )
            pir = compile_program(Program([cl]),
                                  {"U": Block(N, P), "V": Block(N, P)},
                                  repeat=20, swap=[("U", "V")])
            env0 = {"U": np.zeros(N),
                    "V": np.random.default_rng(5).random(N)}
            mf, _ = run_program(pir, copy_env(env0), backend="fused")
            mm, _ = run_program(pir, copy_env(env0), backend="mpi",
                                processes=P)
            assert mm.runtime_stats and pir.trace.notes == []
            for name in "UV":
                assert np.array_equal(mf.env[name], mm.env[name]), name
            return
        if workload == "e13":
            plan, env0, run, write = (stencil_plan(), env1d(), run_distributed,
                                      "A")
        else:
            g = GridDecomposition([Block(24, 2), Block(24, 2)])
            plan = compile_clause_nd_dist(grid_clause(24), {"T": g, "S": g})
            rng = np.random.default_rng(3)
            env0 = {"S": rng.random((24, 24)), "T": np.zeros((24, 24))}
            run, write = run_distributed_nd, "T"
        mf = run(plan, copy_env(env0), backend="fused")
        mm = run(plan, copy_env(env0), backend="mpi", processes=P)
        assert mm.is_mpi and mm.mode == mode and mm.nranks == P
        assert np.array_equal(mf.collect(write), mm.collect(write))
        assert _counters(mf) == _counters(mm)
    finally:
        monkeypatch.undo()
        reset_mpi_support()


class TestStrictGating:
    def test_mpi_refuses_racy_clause_under_strict(self, stub_mode):
        cl = Clause(
            IndexSet(Bounds((0,), (N - 2,))),
            Ref("A", SeparableMap([IdentityF()])),
            Ref("A", SeparableMap([AffineF(1, 1)])) * 0.5,
        )
        plan = compile_clause(cl, {"A": Block(N, P)})
        env0 = {"A": np.random.default_rng(0).random(N)}
        with pytest.raises(FusedStrictError, match="RACE"):
            run_distributed(plan, copy_env(env0), backend="mpi",
                            strict=True)
        with pytest.raises(FusedStrictError, match="RACE"):
            run_shared(plan, copy_env(env0), backend="mpi", strict=True)


class TestFaultInjection:
    """A failing rank must surface as MpiRankError naming phase and
    rank, citing the schedule certificate — and tear down cleanly: no
    stray stub threads, no shm segments, no mpiexec children."""

    def test_fault_names_rank_phase_and_certificate(self, stub_mode):
        plan, env0 = stencil_plan(), env1d()
        with pytest.raises(MpiRankError) as err:
            run_distributed_mp(plan.ir, copy_env(env0), processes=P,
                               launch="mpi", _fault=1)
        e = err.value
        assert e.rank == 1
        assert e.phase not in ("", "?")
        msg = str(e)
        assert "injected fault" in msg
        assert "[SCHED certificate" in msg

    def test_fault_leaves_no_stray_resources(self, stub_mode):
        plan, env0 = stencil_plan(), env1d()
        with pytest.raises(MpiRankError):
            run_distributed_mp(plan.ir, copy_env(env0), processes=P,
                               launch="mpi", _fault=2)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            alive = [t for t in threading.enumerate()
                     if t.name.startswith("repro-mpi-stub")]
            if not alive:
                break
            time.sleep(0.05)
        assert alive == [], "stub rank threads outlived the failed run"
        assert own_shm_segments() <= active_segments()
        if shutil.which("ps"):
            out = subprocess.run(
                ["ps", "--ppid", str(os.getpid()), "-o", "comm="],
                capture_output=True, text=True).stdout
            assert "mpiexec" not in out

    def test_world_recovers_after_fault(self, stub_mode):
        plan, env0 = stencil_plan(), env1d()
        with pytest.raises(MpiRankError):
            run_distributed_mp(plan.ir, copy_env(env0), processes=P,
                               launch="mpi", _fault=0)
        ref = evaluate_clause(stencil_clause(), copy_env(env0))["A"]
        m = run_distributed_mp(plan.ir, copy_env(env0), processes=P,
                               launch="mpi")
        assert np.array_equal(m.collect("A"), ref)


def _fake_launcher(tmp_path, body):
    script = tmp_path / "mpiexec"
    script.write_text("#!/bin/sh\n" + body)
    script.chmod(0o755)
    return str(script)


def _tiny_job():
    return MpiJob(progs=(), flags=(), names=("A",), timeout=5.0)


class TestLauncherProtocol:
    """launch_job against fake mpiexec scripts: failure modes must be
    loud, fast, and leave no temp dirs or process groups behind."""

    def _tmp_jobdirs(self):
        root = tempfile.gettempdir()
        return {d for d in os.listdir(root) if d.startswith("repro-mpi-")}

    def test_nonzero_exit_raises_with_stderr(self, monkeypatch,
                                             tmp_path):
        monkeypatch.setenv("REPRO_MPIEXEC", _fake_launcher(
            tmp_path, 'echo "boom: no fabric" >&2\nexit 3\n'))
        before = self._tmp_jobdirs()
        with pytest.raises(MpiLaunchError) as err:
            launch_job(_tiny_job(), {"A": np.zeros(4)}, 2, 5.0)
        assert "status 3" in str(err.value)
        assert "boom: no fabric" in str(err.value)
        assert self._tmp_jobdirs() == before    # jobdir cleaned up

    def test_timeout_kills_process_group(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_MPIEXEC", _fake_launcher(
            tmp_path, "sleep 60\n"))
        t0 = time.monotonic()
        with pytest.raises(MpiLaunchError, match="timeout"):
            launch_job(_tiny_job(), {"A": np.zeros(4)}, 2, 1.0)
        assert time.monotonic() - t0 < 30.0
        if shutil.which("ps"):
            out = subprocess.run(
                ["ps", "--ppid", str(os.getpid()), "-o", "comm="],
                capture_output=True, text=True).stdout
            assert "sleep" not in out

    def test_job_directory_is_private(self, monkeypatch, tmp_path):
        # job.pkl is unpickled by the ranks: the directory holding it is
        # readable and writable by its owner only (mkdtemp's 0700)
        seen = tmp_path / "seen"
        monkeypatch.setenv("REPRO_MPIEXEC", _fake_launcher(
            tmp_path,
            f'"$3" -c "import os, sys; print(oct(os.stat(sys.argv[1])'
            f'.st_mode & 0o777), sorted(os.listdir(sys.argv[1])))" '
            f'"$7" > {seen}\nexit 0\n'))
        with pytest.raises(MpiLaunchError, match="no result"):
            launch_job(_tiny_job(), {"A": np.zeros(4)}, 2, 5.0)
        assert seen.read_text().split(None, 1) == [
            "0o700", "['env.npz', 'job.pkl']\n"]

    def test_silent_success_raises_no_result(self, monkeypatch,
                                             tmp_path):
        monkeypatch.setenv("REPRO_MPIEXEC", _fake_launcher(
            tmp_path, "exit 0\n"))
        with pytest.raises(MpiLaunchError, match="no result"):
            launch_job(_tiny_job(), {"A": np.zeros(4)}, 2, 5.0)


class TestFusedFallback:
    def test_unavailable_falls_back_with_trace_note(self, no_mpi):
        plan, env0 = stencil_plan(), env1d()
        mf = run_distributed(plan, copy_env(env0), backend="fused")
        mm = run_distributed(plan, copy_env(env0), backend="mpi")
        assert not getattr(mm, "is_mpi", False)
        assert np.array_equal(mf.collect("A"), mm.collect("A"))
        notes = "\n".join(plan.trace.notes)
        assert "backend='mpi' fell back to the fused path" in notes

    def test_replicated_write_falls_back(self, stub_mode):
        from repro.decomp import Replicated

        cl = stencil_clause()
        plan = compile_clause(cl, {"A": Replicated(N, P),
                                   "B": Block(N, P)})
        env0 = env1d(4)
        ref = evaluate_clause(cl, copy_env(env0))["A"]
        mm = run_distributed(plan, copy_env(env0), backend="mpi")
        assert not getattr(mm, "is_mpi", False)
        assert np.array_equal(mm.collect("A"), ref)


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


class TestCLI:
    def test_run_backend_mpi_np(self, stub_mode, prog_file, capsys):
        rc = main(_run_args(prog_file, "--backend", "mpi", "--np", "2",
                            "--stats"))
        cap = capsys.readouterr()
        assert rc == 0
        assert "OK" in cap.out
        assert "tier unavailable" not in cap.err

    def test_run_unavailable_notes_fallback(self, no_mpi, prog_file,
                                            capsys):
        rc = main(_run_args(prog_file, "--backend", "mpi"))
        cap = capsys.readouterr()
        assert rc == 0
        assert "OK" in cap.out
        assert "mpi tier unavailable" in cap.err
        assert "running the fused fallback" in cap.err

    def test_compile_explain_shows_rank_mapping(self, stub_mode,
                                                prog_file, capsys):
        rc = main(["compile", prog_file, "--pmax", "4",
                   "--array", f"A=block:{N}", "--array", f"B=block:{N}",
                   "--param", f"n={N}", "--backend", "mpi", "--explain",
                   "--np", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "# mpi tier:" in out
        assert "rank mapping: 2 rank(s)" in out
        assert "rank 0 <- nodes [0, 1]" in out
        assert "rank 1 <- nodes [2, 3]" in out

    def test_calibrate_json(self, capsys):
        rc = main(["calibrate", "--sizes", "1,64", "--reps", "3",
                   "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        data = json.loads(out)
        assert data["alpha_s"] >= 0.0
        assert data["beta_s"] >= 0.0
        assert data["t_element_s"] > 0.0
        assert data["method"] in ("mpi-pingpong", "pipe-pingpong")
        assert len(data["points"]) == 2


class TestCalibration:
    def test_fit_recovers_exact_affine(self):
        alpha, beta = fit_alpha_beta(
            [(n, 1e-5 + 2e-9 * n) for n in (1, 10, 100, 1000)])
        assert alpha == pytest.approx(1e-5, rel=1e-6)
        assert beta == pytest.approx(2e-9, rel=1e-6)

    def test_fit_clamps_noise_negatives(self):
        alpha, beta = fit_alpha_beta([(1, 5e-6), (1000, 1e-6)])
        assert alpha >= 0.0 and beta == 0.0

    def test_measure_t_element_positive(self):
        assert measure_t_element(n=1 << 12, reps=3) > 0.0

    def test_description_roundtrip_and_env_loader(self, tmp_path,
                                                  monkeypatch):
        md = MachineDescription(alpha_s=3e-5, beta_s=4e-10,
                                t_element_s=2e-9, method="pipe-pingpong",
                                points=((1, 3e-5), (64, 3.1e-5)),
                                meta={"reps": 5})
        path = str(tmp_path / "machine.json")
        md.save(path)
        back = MachineDescription.load(path)
        assert back == md
        monkeypatch.setenv("REPRO_MACHINE_FILE", path)
        assert load_machine() == md
        cm = md.cost_model()
        assert cm.t_update == 1.0
        assert cm.alpha == pytest.approx(3e-5 / 2e-9)
        monkeypatch.setenv("REPRO_MACHINE_FILE",
                           str(tmp_path / "missing.json"))
        assert load_machine() is None

    def test_cost_model_loader_falls_back_to_preset(self, monkeypatch):
        from repro.machine import HYPERCUBE, default_cost_model

        monkeypatch.delenv("REPRO_MACHINE_FILE", raising=False)
        assert default_cost_model() is HYPERCUBE
