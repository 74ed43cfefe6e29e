"""The one parent-side driver: run compiled plans on real processes.

``run_shared_mp`` / ``run_distributed_mp`` / ``run_program_mp`` are what
the ``backend="mp"`` and ``backend="mpi"`` dispatch branches call, the
tier their *launch* argument.  Every run goes through :func:`_drive`:

* gate on the static verifier exactly like fused ``--strict``
  (:func:`repro.machine.fused.check_strict`);
* wrap the plan's node kernels once (cached on them) via
  :mod:`repro.runtime.lowering` — a plan with no such form raises
  :class:`~repro.runtime.lowering.MpLoweringError`, which the
  dispatchers catch to fall back to the in-process fused path;
* certify the schedule before anything runs, and cite the certificate
  on a process failing mid-run;
* aggregate the per-node counters into the existing
  :class:`~repro.machine.stats.MachineStats` (counter-for-counter with
  the fused backend) and attach the per-process
  :class:`~repro.runtime.stats.RuntimeStats` as ``runtime_stats``.

A :class:`Launch` holds what differs: :data:`MP` runs the persistent
worker pool over the shared-memory arena, :data:`repro.mpi.launcher.MPI`
SPMD ranks with private memories.  Node programs multiplex round-robin
onto processes (``node % nprocs``) when fewer processes than nodes are
requested.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np

from ..core.clause import Ordering
from ..machine.shared import SharedMachine
from ..machine.stats import MachineStats
from ..pipeline.cache import _env_number
from .lowering import MpLoweringError, lower_dist, lower_shared
from .pool import WorkerCrashError, get_pool
from .shm import ARENA
from .stats import RuntimeStats

__all__ = ["MP", "Launch", "MpMachine", "launch_of", "run_distributed_mp",
           "run_program_mp", "run_shared_mp"]

#: default process-count ceiling when ``processes`` is not given
_DEFAULT_MAX_PROCESSES = 8


class Launch(NamedTuple):
    """What differs between the real-process tiers."""

    #: ``(progs, flags, phase, repeat, swap, names, changed, genv,
    #: nprocs, timeout, fault) -> (mode, [(RuntimeStats, counters)])``;
    #: leaves every *changed* array's post-state in *genv*
    run: Callable
    knob: str           # environment variable giving the process count
    #: private rank memories: programs run the ``dist`` flavor
    private: bool
    crash: type         # the mid-run failure that cites the certificate
    no_form: tuple = (MpLoweringError,)
    guard: Callable = lambda progs: None    # refusal before certifying


def _nprocs(processes: Optional[int], pmax: int,
            knob: str = "REPRO_MP_PROCESSES") -> int:
    if processes is None:
        processes = _env_number(knob, min(pmax, _DEFAULT_MAX_PROCESSES))
    return max(1, min(int(processes), pmax))


class MpMachine:
    """Result surface of a distributed real-process run: global
    post-state plus the usual stats counters (duck-compatible with
    ``collect``/``stats`` consumers of the simulated distributed
    machine).  ``mode`` records the transport that ran (``"shm"``,
    ``"mpi4py"``, ``"stub"``); ``nranks`` the process count."""

    is_mp = True

    def __init__(self, pmax: int, decomps: Dict[str, object]):
        self.pmax = pmax
        self.decomps = dict(decomps)
        self.stats = MachineStats.for_nodes(pmax)
        self.arrays: Dict[str, np.ndarray] = {}
        self.runtime_stats: List[RuntimeStats] = []
        self.mode, self.nranks = "?", 0

    @property
    def is_mpi(self) -> bool:
        return self.mode in ("mpi4py", "stub")

    def collect(self, name: str) -> np.ndarray:
        if name not in self.arrays:
            raise KeyError(
                f"array {name!r} was never placed on this machine "
                f"(placed: {sorted(self.arrays)})")
        return np.array(self.arrays[name])


def _run_pool(progs, flags, phase, repeat, swap, names, changed, genv,
              nprocs, timeout, fault):
    """The ``mp`` launch: load the global arrays into the pool-lifetime
    arena (its lock held for the whole run) and execute on the
    persistent pool.  A failed run releases the arena before it
    raises."""
    with ARENA.lock:
        try:
            pool = get_pool(nprocs)
            spec = ARENA.load({name: genv[name] for name in names})
            replies = pool.run_seq(progs, spec, repeat, swap, flags, phase,
                                   timeout, fault)
            # workers swap their name -> segment maps after every step,
            # so after an odd number of steps a pair's contents sit
            # swapped
            mapping = {name: name for name in names}
            if repeat % 2:
                for a, b in swap:
                    mapping[a], mapping[b] = b, a
            for name in changed:
                np.copyto(genv[name], ARENA.views[mapping[name]])
            return "shm", replies
        except BaseException:
            ARENA.close()
            raise


#: the multi-process runtime's launch (``backend="mp"``)
MP = Launch(_run_pool, "REPRO_MP_PROCESSES", False, WorkerCrashError)


def launch_of(tier: str) -> Launch:
    if tier == "mpi":
        from ..mpi.launcher import MPI

        return MPI
    if tier != "mp":
        raise ValueError(f"no real-process launch named {tier!r}")
    return MP


def _fill_stats(stats: MachineStats, replies) -> List[RuntimeStats]:
    workers = []
    for rstats, counts in replies:
        workers.append(rstats)
        for p, c in counts.items():
            node = stats[p]
            for attr, value in vars(c).items():
                setattr(node, attr, getattr(node, attr) + value)
    workers.sort(key=lambda s: s.rank)
    return workers


def _check(ir, strict: bool) -> None:
    from ..analysis import check_kernels_strict
    from ..machine.fused import check_strict

    if ir.clause.ordering is not Ordering.PAR:
        raise MpLoweringError(
            "sequential (•) clause is a serial chain; scalar path kept")
    check_strict(ir, strict)
    check_kernels_strict(ir, strict)


def _certify(progs, strict: bool, flags, repeat: int):
    """The pre-commit waits the sequence keeps (:func:`phase_barriers`),
    then the static schedule proof over both barrier vectors before any
    process starts (runtime failures cite the certificate); under
    ``--strict``, refuse to launch on a denied one.  Returns
    ``(certificate, phase flags)``."""
    from ..analysis import check_schedule, phase_barriers

    phase = tuple(b.kept for b in phase_barriers(progs, flags))
    diags, cert = check_schedule(progs, flags=flags, phase=phase,
                                 repeat=repeat)
    if strict and not cert.ok:
        from ..machine.fused import FusedStrictError

        first = next(d for d in diags if d.is_error)
        raise FusedStrictError(
            f"execution refused under --strict: schedule certificate "
            f"denied ({', '.join(cert.codes)}) — {first.message}")
    return cert, phase


def _touched(progs, swap):
    """``(every array the clause sequence names, those it can change)``
    — written arrays and swap partners."""
    swapped = {n for pair in swap for n in pair}
    return (sorted(set().union(*(p.array_names for p in progs)) | swapped),
            {p.write_name for p in progs} | swapped)


def _drive(launch: Launch, progs, flags, repeat: int, swap, genv, machine,
           pmax: int, strict: bool, processes, timeout, fault):
    """Certify, then run ``repeat`` iterations of the lowered clause
    sequence *progs* under *launch*, starting from the global arrays
    *genv*; every written (or swapped) array ends back in *genv* and
    *machine*'s counters are filled.  A single clause is the sequence
    of one program with ``repeat=1``.  Returns ``(transport mode,
    process count)``."""
    launch.guard(progs)
    cert, phase = _certify(progs, strict, flags, repeat)
    names, changed = _touched(progs, swap)
    for name in names:
        if name not in genv:
            raise KeyError(f"environment is missing array {name!r}")
    nprocs = _nprocs(processes, pmax, launch.knob)
    try:
        mode, replies = launch.run(progs, flags, phase, repeat, swap, names,
                                   changed, genv, nprocs, timeout, fault)
    except launch.crash as err:
        from ..analysis import cite_certificate

        cite_certificate(err, cert)
        raise
    machine.runtime_stats = _fill_stats(machine.stats, replies)
    return mode, nprocs


def run_shared_mp(
    ir,
    env: Dict[str, np.ndarray],
    machine: Optional[SharedMachine] = None,
    strict: bool = False,
    processes: Optional[int] = None,
    timeout: Optional[float] = None,
    launch: str = "mp",
    _fault=None,
) -> SharedMachine:
    """Execute a ``//`` clause's shared kernels on real processes; the
    returned :class:`SharedMachine` holds post-state and counters."""
    _check(ir, strict)
    prog = lower_shared(ir, strict)
    if machine is None:
        machine = SharedMachine(ir.pmax, env)
    _drive(launch_of(launch), [prog], (True,), 1, (), machine.env, machine,
           ir.pmax, strict, processes, timeout, _fault)
    return machine


def run_program_mp(
    pir,
    machine: SharedMachine,
    strict: bool = False,
    processes: Optional[int] = None,
    timeout: Optional[float] = None,
    launch: str = "mp",
    _fault=None,
):
    """Execute a whole compiled program (``ProgramIR``) on real
    processes: every clause lowered once, ONE session (arena load or
    MPI world) across all clauses and all ``repeat`` iterations,
    end-of-clause barriers only where the fusion pass kept them,
    pre-commit barriers only where
    :func:`~repro.analysis.phase_barriers` keeps them, and process-side
    buffer swaps between iterations.  Returns ``(machine, barriers)``.

    Pool workers share the global arrays and run the ``shared`` flavor.
    MPI ranks have private memories, so every step runs the ``dist``
    flavor (cross-node reads travel as messages) and a surviving
    redistribution boundary has no whole-program form: the producing
    ranks are not the ones the consumer's send plan reads from.

    Raises :class:`MpLoweringError` when the program has no
    whole-program form — a sequential clause, a clause without shared
    kernels, or an unpipelined time loop — in which case the caller
    falls back to driving clauses individually, one run per clause per
    step.
    """
    tier = launch_of(launch)
    for st in pir.steps:
        _check(st.ir, strict)
    if pir.repeat > 1 and not pir.pipelined:
        raise MpLoweringError(
            f"time loop is not pipelined ({pir.pipeline_reason})")
    if tier.private and pir.redistributions:
        label, name, _ = pir.redistributions[0]
        raise MpLoweringError(
            f"redistribution boundary survives elision ({name!r} at "
            f"{label}): private rank memories would read stale data")
    lower = lower_dist if tier.private else lower_shared
    _drive(tier, [lower(st.ir, strict) for st in pir.steps],
           pir.barrier_flags(), pir.repeat, pir.swap, machine.env, machine,
           pir.pmax, strict, processes, timeout, _fault)
    return machine, pir.barriers_per_step() * pir.repeat


def run_distributed_mp(
    ir,
    env: Dict[str, np.ndarray],
    strict: bool = False,
    processes: Optional[int] = None,
    timeout: Optional[float] = None,
    launch: str = "mp",
    _fault=None,
) -> MpMachine:
    """Execute a ``//`` clause's distributed program on real processes
    (real messages, overlap schedule)."""
    _check(ir, strict)
    prog = lower_dist(ir, strict)
    machine = MpMachine(ir.pmax, prog.decomps)
    for name, arr in env.items():
        machine.arrays[name] = np.asarray(arr, dtype=np.float64).copy()
    machine.mode, machine.nranks = _drive(
        launch_of(launch), [prog], (True,), 1, (), machine.arrays, machine,
        ir.pmax, strict, processes, timeout, _fault)
    return machine
