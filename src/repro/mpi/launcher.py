"""Self-exec under ``mpiexec``: run one :class:`MpiJob` out-of-world.

The parent process (a test, the CLI, a notebook) is *not* an MPI rank —
``run_distributed(..., backend="mpi")`` must nevertheless Just Work.  The
launcher serializes the job into a private directory::

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
from typing import Dict, List, Tuple

import numpy as np

from ..machine.stats import NodeStats
from ..runtime.stats import RuntimeStats
from .support import find_launcher

__all__ = ["MpiLaunchError", "launch_job"]


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
