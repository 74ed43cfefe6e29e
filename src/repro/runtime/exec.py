"""Parent-side drivers: run compiled plans on the worker pool.

``run_shared_mp`` / ``run_distributed_mp`` are what the ``backend="mp"``
dispatch branches of the code generators call.  Both:

* gate on the static verifier exactly like fused ``--strict``
  (:func:`repro.machine.fused.check_strict`);
* wrap the plan's node kernels once (cached on them) via
  :mod:`repro.runtime.lowering` — a plan with no mp form raises
  :class:`~repro.runtime.lowering.MpLoweringError`, which the
  dispatchers catch to fall back to the in-process fused path;
* back the global arrays with a per-run :class:`~repro.runtime.shm.ShmSession`
  and execute on the persistent pool;
* aggregate the workers' per-node counters into the existing
  :class:`~repro.machine.stats.MachineStats` (counter-for-counter with
  the fused backend) and attach the per-worker
  :class:`~repro.runtime.stats.RuntimeStats` as ``runtime_stats``.

Node programs multiplex round-robin onto workers (``node % nprocs``)
when fewer processes than nodes are requested.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..core.clause import Ordering
from ..machine.shared import SharedMachine
from ..machine.stats import MachineStats
from ..pipeline.cache import _env_number
from .lowering import MpLoweringError, lower_dist, lower_shared
from .pool import DEFAULT_TIMEOUT, WorkerCrashError, get_pool
from .shm import ShmSession
from .stats import RuntimeStats

__all__ = ["MpMachine", "run_distributed_mp", "run_program_mp",
           "run_shared_mp"]

#: default worker-count ceiling when ``processes`` is not given
_DEFAULT_MAX_PROCESSES = 8


def _nprocs(processes: Optional[int], pmax: int,
            knob: str = "REPRO_MP_PROCESSES") -> int:
    if processes is None:
        processes = _env_number(knob, min(pmax, _DEFAULT_MAX_PROCESSES))
    return max(1, min(int(processes), pmax))


class MpMachine:
    """Result surface of a distributed mp run: global post-state plus
    the usual stats counters (duck-compatible with ``collect``/``stats``
    consumers of the simulated distributed machine)."""

    is_mp = True

    def __init__(self, pmax: int, decomps: Dict[str, object]):
        self.pmax = pmax
        self.decomps = dict(decomps)
        self.stats = MachineStats.for_nodes(pmax)
        self.arrays: Dict[str, np.ndarray] = {}
        self.runtime_stats: List[RuntimeStats] = []

    def collect(self, name: str) -> np.ndarray:
        if name not in self.arrays:
            raise KeyError(
                f"array {name!r} was never placed on this machine "
                f"(placed: {sorted(self.arrays)})")
        return np.array(self.arrays[name])

    def global_view(self, name: str) -> np.ndarray:
        return self.arrays[name]


def _fill_stats(stats: MachineStats, replies) -> List[RuntimeStats]:
    workers = []
    for rstats, counts in replies:
        workers.append(rstats)
        for p, c in counts.items():
            node = stats[p]
            for attr, value in c.items():
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


def _certify(progs, strict: bool, *, flags=None, repeat: int = 1):
    """Static schedule proof before any worker spawns (runtime failures
    cite the certificate); under ``--strict``, refuse to launch on a
    denied one."""
    from ..analysis import check_schedule

    diags, cert = check_schedule(progs, flags=flags, repeat=repeat)
    if strict and not cert.ok:
        from ..machine.fused import FusedStrictError

        first = next(d for d in diags if d.is_error)
        raise FusedStrictError(
            f"execution refused under --strict: schedule certificate "
            f"denied ({', '.join(cert.codes)}) — {first.message}")
    return cert


def _touched(progs, swap):
    """``(every array the clause sequence names, those it can change)``
    — written arrays and swap partners."""
    swapped = {n for pair in swap for n in pair}
    return (sorted(set().union(*(p.array_names for p in progs)) | swapped),
            {p.write_name for p in progs} | swapped)


def _drive(progs, flags, repeat: int, swap, genv, machine, pmax: int,
           strict: bool, processes, timeout, fault_delay) -> None:
    """Certify, then run ``repeat`` iterations of the lowered clause
    sequence *progs* on the pool against ONE shared-memory session
    backing the global arrays *genv*; copy every written (or swapped)
    array back and fill *machine*'s counters.  A single clause is the
    sequence of one program with ``repeat=1``."""
    cert = _certify(progs, strict, flags=flags, repeat=repeat)
    names, changed = _touched(progs, swap)
    for name in names:
        if name not in genv:
            raise KeyError(f"environment is missing array {name!r}")
    pool = get_pool(_nprocs(processes, pmax))
    session = ShmSession({name: genv[name] for name in names})
    try:
        replies = pool.run_seq(progs, session.spec(), repeat, swap, flags,
                               timeout or DEFAULT_TIMEOUT, fault_delay)
        # workers swap their name -> segment maps after every step, so
        # after an odd number of steps a pair's contents sit swapped
        mapping = {name: name for name in names}
        if repeat % 2:
            for a, b in swap:
                mapping[a], mapping[b] = b, a
        for name in changed:
            np.copyto(genv[name], session.views[mapping[name]])
        machine.runtime_stats = _fill_stats(machine.stats, replies)
    except WorkerCrashError as err:
        from ..analysis import cite_certificate

        cite_certificate(err, cert)
        raise
    finally:
        session.close()


def run_shared_mp(
    ir,
    env: Dict[str, np.ndarray],
    machine: Optional[SharedMachine] = None,
    strict: bool = False,
    processes: Optional[int] = None,
    timeout: Optional[float] = None,
    _fault_delay=None,
) -> SharedMachine:
    """Execute a ``//`` clause's shared kernels on real processes; the
    returned :class:`SharedMachine` holds post-state and counters."""
    _check(ir, strict)
    prog = lower_shared(ir)
    if machine is None:
        machine = SharedMachine(ir.pmax, env)
    _drive([prog], (True,), 1, (), machine.env, machine, ir.pmax, strict,
           processes, timeout, _fault_delay)
    return machine


def run_program_mp(
    pir,
    machine: SharedMachine,
    strict: bool = False,
    processes: Optional[int] = None,
    timeout: Optional[float] = None,
    _fault_delay=None,
):
    """Execute a whole compiled program (``ProgramIR``) on the worker
    pool: every clause lowered once, ONE shared-memory session across
    all clauses and all ``repeat`` iterations, end-of-clause barriers
    only where the fusion pass kept them, and worker-side buffer swaps
    between iterations.  Returns ``(machine, barriers)``.

    Raises :class:`MpLoweringError` when the program has no whole-program
    mp form — a sequential clause, a clause without shared kernels, or an
    unpipelined time loop (a surviving redistribution boundary or an
    incompatible swap pair) — in which case the caller falls back to
    driving clauses individually, one session per clause per step.
    """
    for st in pir.steps:
        _check(st.ir, strict)
    if pir.repeat > 1 and not pir.pipelined:
        raise MpLoweringError(
            f"time loop is not pipelined ({pir.pipeline_reason})")
    _drive([lower_shared(st.ir) for st in pir.steps], pir.barrier_flags(),
           pir.repeat, pir.swap, machine.env, machine, pir.pmax, strict,
           processes, timeout, _fault_delay)
    return machine, pir.barriers_per_step() * pir.repeat


def run_distributed_mp(
    ir,
    env: Dict[str, np.ndarray],
    strict: bool = False,
    processes: Optional[int] = None,
    timeout: Optional[float] = None,
    _fault_delay=None,
) -> MpMachine:
    """Execute a ``//`` clause's distributed program on real processes
    (real messages over the worker queues, overlap schedule)."""
    _check(ir, strict)
    prog = lower_dist(ir)
    machine = MpMachine(ir.pmax, prog.decomps)
    for name, arr in env.items():
        machine.arrays[name] = np.asarray(arr, dtype=np.float64).copy()
    _drive([prog], (True,), 1, (), machine.arrays, machine, ir.pmax, strict,
           processes, timeout, _fault_delay)
    return machine
