"""Multi-node MPI backend: SPMD execution of lowered node programs.

The last step from "simulated distributed machine" to "actually
distributed": the same :class:`~repro.runtime.lowering.MpProgram` the
shm worker pool executes is run SPMD under ``mpiexec -n P`` with real
``Isend``/``Irecv``/``Waitall`` and genuinely private rank memories —
ranks attached to their node sets through a Cartesian communicator when
the decomposition is a grid.

Layers:

=============  ==========================================================
:mod:`support`   cached availability probe (mpi4py / stub / none)
:mod:`transport` mpi4py adapter + in-process stub world (threads)
:mod:`rank`      the SPMD runner; ``python -m repro.mpi.rank`` entry
:mod:`launcher`  the tier's :class:`~repro.runtime.exec.Launch`
                 (stub threads, in-world, or self-exec under
                 ``mpiexec``) that :func:`repro.runtime.exec._drive`
                 runs on ``backend="mpi"``
=============  ==========================================================

The parent-side entries are the real-process tiers' one set,
``repro.runtime.run_{shared,distributed,program}_mp(..., launch="mpi")``.

Heavy submodules load lazily so ``python -m repro.mpi.rank`` does not
re-import itself and probing availability stays import-free.
"""

from .support import (
    MpiSupport,
    in_mpi_world,
    mpi_support,
    reset_mpi_support,
)

__all__ = [
    "MPI",
    "MpiJob",
    "MpiLaunchError",
    "MpiRankError",
    "MpiSupport",
    "MpiUnavailableError",
    "encode_tag",
    "in_mpi_world",
    "max_tag",
    "mpi_support",
    "reset_mpi_support",
]

_LAUNCHER = ("MPI", "MpiLaunchError", "MpiRankError", "MpiUnavailableError")
_RANK = ("MpiJob", "encode_tag", "max_tag")


def __getattr__(name: str):
    if name in _LAUNCHER:
        from . import launcher as _launcher_mod

        return getattr(_launcher_mod, name)
    if name in _RANK:
        from . import rank as _rank_mod

        return getattr(_rank_mod, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
