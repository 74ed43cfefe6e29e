"""Parent-side drivers of the MPI backend: ``backend="mpi"`` entries.

Same contract as the mp runtime's drivers (:mod:`repro.runtime.exec`) —
strict gating, one cached lowering per plan, schedule certificate before
anything is posted, counters aggregated counter-for-counter with the
fused backend — but execution happens SPMD on MPI ranks with private
memories and real ``Isend``/``Irecv``/``Waitall``:

* **out-of-world** (the normal case: a test, the CLI, a notebook): the
  job is serialized and self-exec'd under ``mpiexec -n P`` via
  :mod:`.launcher`;
* **in-world** (the caller's script itself runs under ``mpiexec``):
  every rank calls straight into :func:`repro.mpi.rank.run_job` on
  COMM_WORLD — no double-launch;
* **stub** (``REPRO_MPI_STUB=1``): ranks run as in-process threads over
  the queue transport — the whole runner is testable without mpi4py.

A plan with no mp form still raises
:class:`~repro.runtime.lowering.MpLoweringError`;
:class:`MpiUnavailableError` additionally covers "mpi4py not installed"
and "tag space exceeds the portable minimum".  The dispatchers catch
both and fall back to the in-process fused path with a trace note.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..machine.shared import SharedMachine
from ..runtime.exec import (
    MpMachine,
    _certify,
    _check,
    _fill_stats,
    _nprocs,
    _touched,
)
from ..runtime.lowering import MpLoweringError, lower_dist, lower_shared
from .rank import MpiJob, attach, max_tag, run_job
from .support import in_mpi_world, mpi_support

__all__ = [
    "MAX_PORTABLE_TAG",
    "MpiMachine",
    "MpiRankError",
    "MpiUnavailableError",
    "run_distributed_mpi",
    "run_program_mpi",
    "run_shared_mpi",
]

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


class MpiMachine(MpMachine):
    """Result surface of a distributed MPI run: global post-state plus
    the usual stats counters.  ``mode`` records the transport that
    actually ran ("mpi4py", "stub"); ``nranks`` the world size."""

    is_mpi = True

    def __init__(self, pmax: int, decomps: Dict[str, object],
                 mode: str = "?", nranks: int = 0):
        super().__init__(pmax, decomps)
        self.mode = mode
        self.nranks = nranks


def _nranks(processes: Optional[int], pmax: int) -> int:
    return _nprocs(processes, pmax, "REPRO_MPI_RANKS")


def _grid_shape_of(prog) -> tuple:
    dec = prog.decomps.get(prog.write_name)
    shape = getattr(dec, "grid_shape", None)
    return tuple(shape) if shape else ()


def _guard_tags(progs) -> None:
    for prog in progs:
        need = max_tag(prog.pmax, prog.nreads)
        if need > MAX_PORTABLE_TAG:
            raise MpiUnavailableError(
                f"encoded (seq, dst, src, pos) tag space needs {need} "
                f"tags but the portable MPI minimum is {MAX_PORTABLE_TAG}")


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
        rank = errors.index(primary)
        raise MpiRankError(
            f"rank {rank} failed in phase "
            f"'{getattr(primary, '_mpi_phase', '?')}': {primary}",
            phase=getattr(primary, "_mpi_phase", "?"),
            rank=rank) from primary
    return results[0]


def _execute(job: MpiJob, arrays: Dict[str, np.ndarray], nranks: int,
             cert):
    """Dispatch one job to the available transport; returns
    ``(mode, stats, counts)`` with *arrays* mutated to the post-state.
    Rank failures come back as :class:`MpiRankError` citing *cert*."""
    from ..analysis import cite_certificate

    sup = mpi_support()
    if not sup.available:
        raise MpiUnavailableError(sup.reason)
    try:
        if sup.mode == "stub":
            stats, counts = _run_stub(job, arrays, nranks)
            return "stub", stats, counts
        if in_mpi_world():
            from .transport import world_comm

            comm = world_comm()
            try:
                stats, counts = run_job(attach(comm, job), job, arrays)
            except BaseException as e:
                raise MpiRankError(
                    f"rank {comm.rank} failed in phase "
                    f"'{getattr(e, '_mpi_phase', '?')}': {e}",
                    phase=getattr(e, "_mpi_phase", "?"),
                    rank=comm.rank) from e
            return "mpi4py", stats, counts
        from .launcher import MpiLaunchError, launch_job

        try:
            _arrays, stats, counts = launch_job(job, arrays, nranks,
                                                job.timeout)
        except MpiLaunchError as e:
            raise MpiRankError(str(e)) from e
        return "mpi4py", stats, counts
    except MpiRankError as err:
        cite_certificate(err, cert)
        raise


def _as_arrays(env: Dict[str, np.ndarray],
               names) -> Dict[str, np.ndarray]:
    out = {}
    for name in names:
        if name not in env:
            raise KeyError(f"environment is missing array {name!r}")
        out[name] = np.ascontiguousarray(env[name], dtype=np.float64).copy()
    return out


def run_distributed_mpi(
    ir,
    env: Dict[str, np.ndarray],
    strict: bool = False,
    processes: Optional[int] = None,
    timeout: Optional[float] = None,
    _fault_rank: int = -1,
) -> MpiMachine:
    """Execute a ``//`` clause's distributed program SPMD over MPI
    ranks (Cartesian attachment when the write decomposition is a grid
    covering the world exactly)."""
    _check(ir, strict)
    prog = lower_dist(ir)
    machine = MpiMachine(ir.pmax, prog.decomps)
    for name, arr in env.items():
        machine.arrays[name] = np.asarray(arr, dtype=np.float64).copy()
    machine.mode, machine.nranks = _drive(
        [prog], (True,), 1, (), machine.arrays, machine, ir.pmax, strict,
        processes, timeout, _fault_rank, grid_shape=_grid_shape_of(prog))
    return machine


def _drive(progs, flags, repeat: int, swap, genv, machine, pmax: int,
           strict: bool, processes, timeout, fault_rank: int,
           grid_shape: tuple = ()) -> Tuple[str, int]:
    """Certify, then run ``repeat`` iterations of the lowered clause
    sequence *progs* in ONE MPI world starting from the global arrays
    *genv*; copy every written (or swapped) array back and fill
    *machine*'s counters.  Returns ``(transport mode, world size)``."""
    _guard_tags(progs)
    cert = _certify(progs, strict, flags=flags, repeat=repeat)
    names, changed = _touched(progs, swap)
    arrays = _as_arrays(genv, names)
    nranks = _nranks(processes, pmax)
    job = MpiJob(progs=tuple(progs), flags=tuple(flags), repeat=repeat,
                 swap=tuple(swap), names=tuple(names),
                 grid_shape=grid_shape, timeout=timeout or DEFAULT_TIMEOUT,
                 fault_rank=fault_rank)
    mode, stats, counts = _execute(job, arrays, nranks, cert)
    # ranks swap their name -> buffer dicts after every step (including
    # the last), exactly like the reference semantics swaps env entries,
    # and the final allgather fills the post-swap names — so the dict
    # already carries every array under its final name
    for name in changed:
        np.copyto(genv[name], arrays[name])
    machine.runtime_stats = _fill_stats(machine.stats,
                                        list(zip(stats, counts)))
    return mode, nranks


def run_shared_mpi(
    ir,
    env: Dict[str, np.ndarray],
    machine: Optional[SharedMachine] = None,
    strict: bool = False,
    processes: Optional[int] = None,
    timeout: Optional[float] = None,
    _fault_rank: int = -1,
) -> SharedMachine:
    """Execute a ``//`` clause's shared kernels SPMD over MPI ranks (the
    degenerate no-send flavor: the pre-commit barrier is the only
    communication beside the final state exchange)."""
    _check(ir, strict)
    prog = lower_shared(ir)
    if machine is None:
        machine = SharedMachine(ir.pmax, env)
    _drive([prog], (True,), 1, (), machine.env, machine, ir.pmax, strict,
           processes, timeout, _fault_rank)
    return machine


def run_program_mpi(
    pir,
    machine: SharedMachine,
    strict: bool = False,
    processes: Optional[int] = None,
    timeout: Optional[float] = None,
    _fault_rank: int = -1,
) -> Tuple[SharedMachine, int]:
    """Execute a whole compiled program (``ProgramIR``) SPMD over MPI
    ranks: every clause lowered once, ONE world across all clauses and
    all ``repeat`` iterations, end-of-clause barriers only where the
    fusion pass kept them, rank-local buffer swaps between iterations,
    and a single final-state exchange.  Returns ``(machine, barriers)``.

    Unlike the mp runtime — whose ranks share the global arrays and can
    run the degenerate shared flavor — MPI ranks have private memories,
    so every step runs the **dist** flavor: cross-node reads travel as
    real messages, keeping each rank fresh at the positions it owns
    between steps.  That also means a surviving redistribution boundary
    (an array produced under one placement and consumed under another)
    has no whole-program MPI form: the producing ranks are not the ones
    the consumer's send plan reads from.

    Raises :class:`MpLoweringError` when the program has no
    whole-program form — the caller falls back to driving clauses
    individually (one MPI world per clause per step, each starting from
    globally consistent state)."""
    for st in pir.steps:
        _check(st.ir, strict)
    if pir.repeat > 1 and not pir.pipelined:
        raise MpLoweringError(
            f"time loop is not pipelined ({pir.pipeline_reason})")
    if pir.redistributions:
        label, name, _ = pir.redistributions[0]
        raise MpLoweringError(
            f"redistribution boundary survives elision ({name!r} at "
            f"{label}): private rank memories would read stale data")
    _drive([lower_dist(st.ir) for st in pir.steps], pir.barrier_flags(),
           pir.repeat, pir.swap, machine.env, machine, pir.pmax, strict,
           processes, timeout, _fault_rank)
    return machine, pir.barriers_per_step() * pir.repeat
