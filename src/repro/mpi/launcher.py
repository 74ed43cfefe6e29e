"""The ``mpi`` tier's launch: run one :class:`~repro.mpi.rank.MpiJob`.

:data:`MPI` is the :class:`~repro.runtime.exec.Launch` that the one
parent-side driver (:func:`repro.runtime.exec._drive`) runs on
``backend="mpi"``.  The ranks execute SPMD with private memories and
real ``Isend``/``Irecv``/``Waitall``, on the transport
:func:`~repro.mpi.support.mpi_support` finds:

* **stub** (``REPRO_MPI_STUB=1``): ranks run as in-process threads over
  the queue transport — the whole runner is testable without mpi4py;
* **in-world** (the caller's script itself runs under ``mpiexec``):
  every rank calls straight into :func:`repro.mpi.rank.run_job` on
  COMM_WORLD — no double-launch;
* **out-of-world** (the normal case: a test, the CLI, a notebook): the
  job is self-exec'd under ``mpiexec -n P`` by :func:`launch_job`.

:class:`MpiUnavailableError` covers "mpi4py not installed" and "tag
space exceeds the portable minimum": the dispatchers fall back to the
in-process fused path with a trace note.  A rank that fails mid-run
surfaces as :class:`MpiRankError`, citing the schedule certificate.

Self-exec protocol
------------------

The parent process is *not* an MPI rank —
``run_distributed(..., backend="mpi")`` must nevertheless Just Work.
:func:`launch_job` serializes the job into a private directory::

    job.pkl     the MpiJob (lowered programs, flags, repeat, swap)
    env.npz     the global arrays (pre-state)

spawns ``mpiexec -n P python -m repro.mpi.rank --job DIR`` in its own
process group, and reads back::

    result.npz  full post-state (rank 0 writes it after the allgather)
    stats.json  per-rank RuntimeStats + per-node counters

A timeout kills the whole process group (``killpg``) so no mpiexec child
ever outlives the parent — the teardown invariant the tests assert.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from typing import Dict, List, Optional

import numpy as np

from ..machine.stats import NodeStats
from ..runtime.exec import Launch
from ..runtime.lowering import MpLoweringError
from ..runtime.stats import RuntimeStats
from .rank import MpiJob, attach, max_tag, run_job
from .support import find_launcher, in_mpi_world, mpi_support

__all__ = ["MAX_PORTABLE_TAG", "MPI", "MpiLaunchError", "MpiRankError",
           "MpiUnavailableError", "launch_job"]

#: the MPI standard's guaranteed minimum for MPI_TAG_UB; the parent
#: cannot read the real attribute without initializing MPI, so programs
#: whose encoded tag space exceeds this fall back to fused
MAX_PORTABLE_TAG = 32767

DEFAULT_TIMEOUT = 120.0


class MpiUnavailableError(RuntimeError):
    """The MPI backend cannot run here (reason in ``args[0]``); the
    dispatchers fall back to the in-process fused path."""


class MpiRankError(RuntimeError):
    """A rank failed (or the launch died) mid-run.  Carries the phase
    the failing rank was in when known; the attached schedule
    certificate (see :func:`repro.analysis.cite_certificate`) rules the
    static schedule out as the cause."""

    def __init__(self, message: str, phase: str = "?", rank: int = -1):
        super().__init__(message)
        self.phase = phase
        self.rank = rank


class MpiLaunchError(RuntimeError):
    """mpiexec could not be run or exited nonzero (stderr tail in the
    message)."""


def _rank_env() -> Dict[str, str]:
    """Child environment: inherit, but make sure the repro package is
    importable (the parent may run from a checkout with PYTHONPATH) and
    the children never re-launch recursively."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    parts = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    if src not in parts:
        env["PYTHONPATH"] = os.pathsep.join([src] + parts)
    return env


def _stderr_tail(text: str, lines: int = 12) -> str:
    tail = [ln for ln in text.strip().splitlines() if ln.strip()]
    return "\n".join(tail[-lines:])


def launch_job(job, arrays: Dict[str, np.ndarray], nranks: int,
               timeout: float):
    """Run *job* under ``mpiexec -n nranks``; returns
    ``(arrays, stats, counts)`` with *arrays* holding the post-state.
    Raises :class:`MpiLaunchError` on launcher failure, timeout, or a
    nonzero exit (an aborted rank)."""
    launcher = find_launcher()
    if launcher is None:
        raise MpiLaunchError("no mpiexec/mpirun launcher on PATH")
    jobdir = tempfile.mkdtemp(prefix="repro-mpi-")
    try:
        with open(os.path.join(jobdir, "job.pkl"), "wb") as fh:
            pickle.dump(job, fh)
        np.savez(os.path.join(jobdir, "env.npz"), **arrays)
        cmd = [launcher, "-n", str(nranks), sys.executable, "-m",
               "repro.mpi.rank", "--job", jobdir]
        try:
            proc = subprocess.Popen(
                cmd, env=_rank_env(), stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True,
                start_new_session=True)
        except OSError as e:
            raise MpiLaunchError(f"could not exec {launcher}: {e}") from e
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            # kill the whole group: mpiexec plus every rank it spawned
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (OSError, ProcessLookupError):
                proc.kill()
            proc.wait()
            raise MpiLaunchError(
                f"mpiexec run exceeded the {timeout:.1f}s timeout "
                "(process group killed)") from None
        if proc.returncode != 0:
            raise MpiLaunchError(
                f"mpiexec exited with status {proc.returncode}:\n"
                + _stderr_tail(err or out))
        result_path = os.path.join(jobdir, "result.npz")
        stats_path = os.path.join(jobdir, "stats.json")
        if not (os.path.exists(result_path) and os.path.exists(stats_path)):
            raise MpiLaunchError(
                "mpiexec exited 0 but wrote no result:\n"
                + _stderr_tail(err or out))
        with np.load(result_path) as data:
            for name in data.files:
                arrays[name] = np.array(data[name])
        with open(stats_path) as fh:
            payload = json.load(fh)
        stats = [_stats_from(d) for d in payload["stats"]]
        counts = [{int(p): NodeStats(**c) for p, c in by.items()}
                  for by in payload["counts"]]
        return arrays, stats, counts
    finally:
        shutil.rmtree(jobdir, ignore_errors=True)


def _stats_from(d: dict) -> RuntimeStats:
    d = dict(d)
    d["nodes"] = tuple(d.get("nodes", ()))
    return RuntimeStats(**d)


def _guard_tags(progs) -> None:
    for prog in progs:
        need = max_tag(prog.pmax, prog.nreads)
        if need > MAX_PORTABLE_TAG:
            raise MpiUnavailableError(
                f"encoded (seq, dst, src, pos) tag space needs {need} "
                f"tags but the portable MPI minimum is {MAX_PORTABLE_TAG}")


def _rank_failed(rank: int, err: BaseException) -> MpiRankError:
    phase = getattr(err, "_mpi_phase", "?")
    return MpiRankError(f"rank {rank} failed in phase '{phase}': {err}",
                        phase=phase, rank=rank)


def _run_stub(job: MpiJob, arrays: Dict[str, np.ndarray], nranks: int):
    """In-process execution: one thread per rank over the stub
    transport.  Rank 0 runs against the caller's *arrays* dict (the
    final allgather leaves the full post-state there); every other rank
    gets a private copy — genuinely private memories."""
    from .transport import StubAbort, StubWorld

    world = StubWorld(nranks, timeout=job.timeout)
    results: List[object] = [None] * nranks
    errors: List[Optional[BaseException]] = [None] * nranks

    def body(r: int) -> None:
        local = (arrays if r == 0 else
                 {name: arr.copy() for name, arr in arrays.items()})
        try:
            results[r] = run_job(attach(world.comm(r), job), job, local)
        except BaseException as e:  # noqa: BLE001 — reported below
            errors[r] = e

    threads = [threading.Thread(target=body, args=(r,), daemon=True,
                                name=f"repro-mpi-stub-{r}")
               for r in range(nranks)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(job.timeout + 30.0)
    if any(t.is_alive() for t in threads):
        world.abort()
        for t in threads:
            t.join(5.0)
        raise MpiRankError("stub world hung past the run timeout")
    primary = next((e for e in errors
                    if e is not None and not isinstance(e, StubAbort)),
                   next((e for e in errors if e is not None), None))
    if primary is not None:
        raise _rank_failed(errors.index(primary), primary) from primary
    return results[0]


def _run_world(progs, flags, phase, repeat, swap, names, changed, genv,
               nranks, timeout, fault):
    """The ``mpi`` launch: ONE world for the whole clause sequence on
    the available transport, every rank starting from a private copy of
    the global arrays; a single clause attaches through a Cartesian
    communicator when its write decomposition is a grid covering the
    world exactly.  *fault* is the rank that raises mid-run (a test
    hook)."""
    sup = mpi_support()
    if not sup.available:
        raise MpiUnavailableError(sup.reason)
    arrays = {name: np.ascontiguousarray(genv[name], dtype=np.float64).copy()
              for name in names}
    grid = getattr(progs[0].decomps.get(progs[0].write_name), "grid_shape",
                   None)
    job = MpiJob(progs=tuple(progs), flags=tuple(flags), phase=phase,
                 repeat=repeat, swap=tuple(swap), names=tuple(names),
                 grid_shape=tuple(grid) if grid and len(progs) == 1 else (),
                 timeout=timeout or DEFAULT_TIMEOUT,
                 fault_rank=-1 if fault is None else fault)
    mode = sup.mode
    if mode == "stub":
        stats, counts = _run_stub(job, arrays, nranks)
    elif in_mpi_world():
        from .transport import world_comm

        comm = world_comm()
        try:
            stats, counts = run_job(attach(comm, job), job, arrays)
        except BaseException as e:
            raise _rank_failed(comm.rank, e) from e
    else:
        try:
            _arrays, stats, counts = launch_job(job, arrays, nranks,
                                                job.timeout)
        except MpiLaunchError as e:
            raise MpiRankError(str(e)) from e
    # ranks swap their name -> buffer dicts after every step (including
    # the last), exactly like the reference semantics swaps env entries,
    # and the final allgather fills the post-swap names — so the dict
    # already carries every array under its final name
    for name in changed:
        np.copyto(genv[name], arrays[name])
    return mode, list(zip(stats, counts))


#: the MPI backend's launch (``backend="mpi"``)
MPI = Launch(_run_world, "REPRO_MPI_RANKS", True, MpiRankError,
             (MpLoweringError, MpiUnavailableError), _guard_tags)
