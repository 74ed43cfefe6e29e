"""Multi-process SPMD runtime (``backend="mp"``).

The simulated machines prove the paper's generation story; this package
executes it: the compile-once fused node kernels of the `lower-kernels`
pass run in **real OS processes**, with global arrays in
``multiprocessing.shared_memory`` and inter-node messages over real
queues following the overlap schedule (post sends, compute interior,
drain, commit boundary).

Layers
------

``lowering``   plan IR -> :class:`MpProgram`: the install envelope
               around the plan's own node kernels (regions)
``shm``        the pool-lifetime shared-memory arena + leak-proof
               unlinking
``worker``     the worker main loop, and ``run_sequence`` — the one
               real-process schedule the MPI ranks run too
``pool``       persistent :class:`WorkerPool`, crash/timeout detection,
               self-healing respawn, :func:`shutdown_runtime`
``exec``       the one parent-side driver of both real-process tiers:
               ``run_shared_mp`` / ``run_distributed_mp`` /
               ``run_program_mp``, the launch (``"mp"`` here, ``"mpi"``
               in :mod:`repro.mpi.launcher`) a parameter, and the
               :class:`MpMachine` result surface
``stats``      per-worker :class:`RuntimeStats` observability

See ``docs/runtime.md`` for the process model and failure semantics.
"""

from .exec import (
    MpMachine,
    run_distributed_mp,
    run_program_mp,
    run_shared_mp,
)
from .lowering import (
    MpLoweringError,
    MpProgram,
    lower_dist,
    lower_shared,
)
from .pool import (
    DEFAULT_TIMEOUT,
    WorkerCrashError,
    WorkerPool,
    get_pool,
    install_signal_handlers,
    runtime_info,
    shutdown_runtime,
)
from .shm import ShmArena, active_segments
from .stats import RuntimeStats

__all__ = [
    "DEFAULT_TIMEOUT",
    "MpLoweringError",
    "MpMachine",
    "MpProgram",
    "RuntimeStats",
    "ShmArena",
    "WorkerCrashError",
    "WorkerPool",
    "active_segments",
    "get_pool",
    "install_signal_handlers",
    "lower_dist",
    "lower_shared",
    "run_distributed_mp",
    "run_program_mp",
    "run_shared_mp",
    "runtime_info",
    "shutdown_runtime",
]
