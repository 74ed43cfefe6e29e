"""Availability probe and world detection for the MPI backend.

One cached probe: the backend registry, the CLI, the executors and the
tests all consult :func:`mpi_support` — never ``import mpi4py``
directly — so "mpi4py not installed" surfaces exactly once, as a
one-line trace-noted fallback to fused.

Three modes:

``mpi4py``  the real thing — ``mpi4py.MPI`` imports and a launcher
            (``mpiexec``/``mpirun``) is findable (the launcher is not
            required when already *inside* an MPI world);
``stub``    ``REPRO_MPI_STUB=1``: ranks run as in-process threads over a
            queue-based transport with the same Isend/Irecv/Waitall
            surface (testing mode — the whole rank runner, tag scheme
            and gather protocol execute without mpi4py);
``none``    disabled by ``REPRO_NO_MPI=1``, or mpi4py absent.

:func:`in_mpi_world` detects whether this process was started by an MPI
launcher (OpenMPI / MPICH-Hydra / PMI environment markers) — the
executors self-exec under ``mpiexec`` only when *not* already in a
world, and ``python -m repro.mpi.rank`` refuses to double-launch.
"""

from __future__ import annotations

import os
import shutil
import threading
from typing import NamedTuple, Optional

__all__ = [
    "MpiSupport",
    "find_launcher",
    "in_mpi_world",
    "mpi_support",
    "reset_mpi_support",
]

#: environment markers set by the common launchers (OpenMPI, MPICH/
#: Hydra, Intel MPI, Slurm's PMI) — presence means "inside a world"
_WORLD_MARKERS = (
    "OMPI_COMM_WORLD_SIZE",
    "PMI_SIZE",
    "PMI_RANK",
    "MPI_LOCALNRANKS",
    "MV2_COMM_WORLD_SIZE",
)


class MpiSupport(NamedTuple):
    """Result of the cached mpi4py probe."""

    available: bool
    mode: str           # "mpi4py" | "stub" | "none"
    reason: str         # human-readable availability note
    version: Optional[str] = None
    launcher: Optional[str] = None   # mpiexec/mpirun path (mpi4py mode)


_support: Optional[MpiSupport] = None
_support_lock = threading.Lock()


def find_launcher() -> Optional[str]:
    """Path of the MPI launcher (``REPRO_MPIEXEC`` override, else
    ``mpiexec``/``mpirun`` on PATH), or ``None``."""
    override = os.environ.get("REPRO_MPIEXEC")
    if override:
        return override if os.sep in override else shutil.which(override)
    for name in ("mpiexec", "mpirun"):
        path = shutil.which(name)
        if path:
            return path
    return None


def in_mpi_world() -> bool:
    """True when this process was started by an MPI launcher."""
    return any(m in os.environ for m in _WORLD_MARKERS)


def _probe() -> MpiSupport:
    if os.environ.get("REPRO_NO_MPI"):
        return MpiSupport(False, "none", "disabled by REPRO_NO_MPI")
    if os.environ.get("REPRO_MPI_STUB"):
        return MpiSupport(
            True, "stub",
            "REPRO_MPI_STUB: ranks run as in-process threads over the "
            "queue transport (testing mode)")
    try:
        import mpi4py
    except ImportError as e:
        return MpiSupport(
            False, "none",
            f"mpi4py unavailable ({e}); install the 'mpi' extra")
    version = getattr(mpi4py, "__version__", "0")
    launcher = find_launcher()
    if launcher is None and not in_mpi_world():
        return MpiSupport(
            False, "none",
            f"mpi4py {version} is importable but no mpiexec/mpirun "
            "launcher was found on PATH", version)
    return MpiSupport(True, "mpi4py", f"mpi4py {version}", version,
                      launcher)


def mpi_support() -> MpiSupport:
    """The single cached probe for MPI availability (process-wide;
    :func:`reset_mpi_support` re-probes after env changes)."""
    global _support
    sup = _support
    if sup is None:
        with _support_lock:
            sup = _support
            if sup is None:
                sup = _support = _probe()
    return sup


def reset_mpi_support() -> None:
    """Drop the cached probe result (re-reads env on next call)."""
    global _support
    with _support_lock:
        _support = None
