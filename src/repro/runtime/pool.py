"""The persistent worker pool of the multi-process runtime.

One :class:`WorkerPool` per worker count, spawned on first use and
reused across runs — the process-level analogue of the plan cache.  Each
worker is a daemon process with a duplex command pipe, an inbox queue on
the shared message fabric, and a slot in the shared phase table.

Robustness model: the parent never blocks without a deadline.  It waits
on the command pipes *and* the process sentinels, so a worker dying
mid-run is detected immediately (not at timeout), and a hung run is
detected when the per-run timeout (plus a small reporting grace) lapses.
Both paths raise :class:`WorkerCrashError` naming the culprit worker,
its phase and node — blame goes to a dead worker first, else to the
worker furthest behind in the schedule by ``(clause sequence, phase)``
(the laggard everyone else is stuck waiting for).  The pool then
self-heals by respawning every worker; the next run reinstalls programs
and proceeds normally.

:func:`shutdown_runtime` — also registered ``atexit`` and invoked by
``clear_plan_cache()`` and the SIGTERM handler — terminates every pool
and releases the shared-memory arena the pools share, so test runs never
leak ``/dev/shm`` entries or processes.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing as mp
import os
import signal
import time
from multiprocessing.connection import wait as _conn_wait
from typing import Dict, List, Optional, Tuple

from ..pipeline.cache import _env_number
from .shm import unlink_leftovers
from .stats import PHASES, SLOTS, phase_of
from .worker import worker_main

__all__ = [
    "DEFAULT_TIMEOUT",
    "WorkerCrashError",
    "WorkerPool",
    "get_pool",
    "install_signal_handlers",
    "runtime_info",
    "shutdown_runtime",
]

#: per-run execution timeout (seconds) when none is passed
DEFAULT_TIMEOUT = _env_number("REPRO_MP_TIMEOUT", 60.0, float)

#: extra parent-side slack so workers report their own timeout first
_REPORT_GRACE = 5.0


def _start_method() -> str:
    methods = mp.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


class WorkerCrashError(RuntimeError):
    """A worker died or hung mid-run.  The pool has already respawned;
    the failed run's results are lost but the next run will succeed."""

    def __init__(self, message: str, rank: Optional[int] = None,
                 node: Optional[int] = None, phase: Optional[str] = None):
        super().__init__(message)
        self.rank = rank
        self.node = node
        self.phase = phase


class WorkerPool:
    """``nprocs`` persistent workers plus the parent-side protocol."""

    def __init__(self, nprocs: int):
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        self.nprocs = nprocs
        self.method = _start_method()
        self._ctx = mp.get_context(self.method)
        self._run_seq = itertools.count(1)
        self.spawns = 0
        self._spawn()

    # -- lifecycle ---------------------------------------------------------

    def _spawn(self) -> None:
        ctx = self._ctx
        if self.method == "fork":
            # fork children must inherit a *live* resource tracker (they
            # then share the parent's, and attach registration is a set
            # no-op); a worker forked before the tracker exists would
            # lazily spawn a private one whose exit-time cleanup races
            # the parent's unlink and spews "leaked shared_memory"
            # warnings
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        # the barrier: one arrival generation per worker, read and
        # written under the pool's lock (QueueTransport.barrier)
        self.arrivals = ctx.Array("q", self.nprocs, lock=ctx.Lock())
        self.phase_table = ctx.Array("q", SLOTS * self.nprocs, lock=False)
        self.inboxes = [ctx.Queue() for _ in range(self.nprocs)]
        self.conns, self.procs = [], []
        for rank in range(self.nprocs):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=worker_main,
                args=(rank, self.nprocs, child, self.inboxes,
                      self.arrivals, self.phase_table,
                      self.method != "fork"),
                daemon=True, name=f"repro-mp-w{rank}")
            proc.start()
            child.close()
            self.conns.append(parent)
            self.procs.append(proc)
        self.installed = set()
        self.spawns += 1

    def alive(self) -> bool:
        return bool(self.procs) and all(p.is_alive() for p in self.procs)

    def pids(self) -> List[int]:
        return [p.pid for p in self.procs]

    def phases(self) -> List[Tuple[str, int, int]]:
        """Per-worker (phase name, current node, clause sequence)
        snapshot."""
        return [phase_of(self.phase_table, r) for r in range(self.nprocs)]

    def _teardown(self) -> None:
        for conn in self.conns:
            try:
                conn.close()
            except Exception:
                pass
        for q in self.inboxes:
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:
                pass
        for p in self.procs:
            if p.is_alive():
                p.terminate()
        for p in self.procs:
            p.join(timeout=2.0)
            if p.is_alive():
                p.kill()
                p.join(timeout=2.0)
        self.conns, self.procs, self.inboxes = [], [], []

    def respawn(self) -> None:
        """Self-heal: replace every worker (installed programs drop and
        reinstall lazily on the next run)."""
        self._teardown()
        self._spawn()

    def shutdown(self) -> None:
        for conn in self.conns:
            try:
                conn.send(("exit",))
            except Exception:
                pass
        for p in self.procs:
            p.join(timeout=0.5)
        self._teardown()

    # -- failure attribution ----------------------------------------------

    def _fail(self, reason: str, rank: Optional[int],
              exitcode: Optional[int] = None,
              fallback: Optional[int] = None) -> None:
        snapshot = self.phases()
        dead = [r for r, p in enumerate(self.procs) if not p.is_alive()]
        culprit = rank
        if culprit is None:
            # blame a dead worker first, else the live laggard — the
            # worker earliest in the schedule by (clause sequence, phase);
            # idle/done workers have already finished or reported, so
            # they are not stuck
            active = [r for r in range(self.nprocs)
                      if snapshot[r][0] not in ("idle", "done")]
            if dead:
                culprit = dead[0]
            elif active:
                order = {name: i for i, name in enumerate(PHASES)}
                culprit = min(active, key=lambda r: (
                    snapshot[r][2], order.get(snapshot[r][0], len(PHASES))))
            else:
                culprit = fallback if fallback is not None else 0
        phase, node, _ = snapshot[culprit]
        table = ", ".join(
            f"w{r}={ph}" + (f"@n{nd}" if nd >= 0 else "")
            + (f"#{seq}" if seq >= 0 else "")
            for r, (ph, nd, seq) in enumerate(snapshot))
        msg = (f"mp runtime: worker {culprit} {reason} in phase {phase!r}"
               + (f" on node {node}" if node >= 0 else "")
               + (f" (exit code {exitcode})" if exitcode is not None else "")
               + f"; workers: [{table}]; pool respawned")
        try:
            self.respawn()
        except Exception:
            pass
        raise WorkerCrashError(msg, rank=culprit,
                               node=node if node >= 0 else None, phase=phase)

    # -- protocol ----------------------------------------------------------

    def _send(self, rank: int, msg: tuple) -> None:
        try:
            self.conns[rank].send(msg)
        except (OSError, ValueError):
            self._fail("died (command pipe closed)", rank,
                       exitcode=self.procs[rank].exitcode)

    def _await_each(self, match, deadline: float, what: str) -> list:
        """Collect one matching reply per worker; any sentinel firing,
        error report or deadline lapse raises WorkerCrashError."""
        got = {}
        while len(got) < self.nprocs:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._fail(f"timed out waiting for {what}", None)
            by_conn = {c: r for r, c in enumerate(self.conns)}
            sentinels = {p.sentinel: r for r, p in enumerate(self.procs)}
            ready = _conn_wait(list(by_conn) + list(sentinels),
                               timeout=remaining)
            if not ready:
                self._fail(f"timed out waiting for {what}", None)
            for obj in ready:
                if obj in sentinels:
                    r = sentinels[obj]
                    if r not in got:
                        self._fail("died", r,
                                   exitcode=self.procs[r].exitcode)
                    continue
                rank = by_conn[obj]
                try:
                    msg = obj.recv()
                except (EOFError, OSError):
                    self._fail("died (connection lost)", rank,
                               exitcode=self.procs[rank].exitcode)
                if msg[0] == "err":
                    _, _rid, r, phase, node, tb = msg
                    tail = tb.strip().splitlines()[-1] if tb else "error"
                    # a barrier / drain timeout usually means some *other*
                    # worker is stuck — let the snapshot decide
                    blame = None if "TimeoutError" in tb else r
                    self._fail(f"failed ({tail})", blame, fallback=r)
                out = match(msg)
                if out is not None and rank not in got:
                    got[rank] = out
        return [got[r] for r in range(self.nprocs)]

    def install(self, prog, deadline: float) -> None:
        if prog.token in self.installed:
            return
        for rank in range(self.nprocs):
            self._send(rank, ("plan", prog.payload_for(rank, self.nprocs)))

        def match(msg):
            return True if (msg[0] == "planok"
                            and msg[1] == prog.token) else None

        self._await_each(match, deadline, "program install")
        self.installed.add(prog.token)

    def run_seq(self, progs, shm_spec, steps: int, swap, flags, phase,
                timeout: Optional[float] = None, fault_delay=None) -> list:
        """Execute ``steps`` iterations of the (auto-installed) clause
        sequence *progs* against one set of segments, buffer pairs in
        *swap* exchanged worker-side after every step, end-of-clause
        waits where *flags* and pre-commit waits where *phase* keep them
        — a single clause is the sequence of one program with
        ``steps=1``.  One command, one reply per worker for the whole
        time loop: the per-rank ``(RuntimeStats, {node: counters})``."""
        timeout = float(timeout) if timeout else DEFAULT_TIMEOUT
        deadline = time.monotonic() + timeout + _REPORT_GRACE
        if not self.alive():
            self.respawn()
        for prog in progs:
            self.install(prog, deadline)
        run_id = next(self._run_seq)
        tokens = tuple(prog.token for prog in progs)
        for rank in range(self.nprocs):
            self._send(rank, ("runseq", tokens, run_id, shm_spec,
                              int(steps), tuple(swap), tuple(flags),
                              tuple(phase), timeout, fault_delay))

        def match(msg):
            if msg[0] == "done" and msg[1] == run_id:
                return (msg[3], msg[4])
            return None

        return self._await_each(match, deadline, f"run {run_id}")


# ---------------------------------------------------------------------------
# pool registry + global shutdown
# ---------------------------------------------------------------------------

_POOLS: Dict[int, WorkerPool] = {}
_ATEXIT_REGISTERED = False
_SIGNALS_INSTALLED = False


def install_signal_handlers(signals=(signal.SIGTERM,)) -> bool:
    """Drain and dispose every worker pool *before* interpreter teardown
    on a terminating signal.

    The atexit-registered :func:`shutdown_runtime` is not enough under
    SIGTERM: Python's default action kills the process without running
    atexit callbacks at all, and even when a handler re-enables them the
    interpreter is already reaping daemonized children — the pool's
    orderly ``exit``/terminate/join protocol races that teardown and can
    leave ``/dev/shm`` segments behind.  This installs a handler (once,
    chaining any previously installed Python-level handler) that shuts
    the runtime down synchronously, then restores the default action and
    re-raises the signal so the exit status stays conventional
    (``128+signum``).

    Returns ``False`` — without installing anything — when called off
    the main thread, where CPython forbids ``signal.signal``; callers
    like the serve daemon register their own loop-level handlers
    instead.  Safe to call repeatedly.
    """
    global _SIGNALS_INSTALLED
    if _SIGNALS_INSTALLED:
        return True

    def _make(prev):
        def _handler(signum, frame):
            shutdown_runtime()
            if prev is not None:
                prev(signum, frame)
                return
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
        return _handler

    try:
        for sig in signals:
            prev = signal.getsignal(sig)
            if prev is signal.SIG_IGN:  # deliberately ignored: respect it
                continue
            chained = prev if callable(prev) else None
            signal.signal(sig, _make(chained))
    except ValueError:  # not the main thread
        return False
    _SIGNALS_INSTALLED = True
    return True


def get_pool(nprocs: int) -> WorkerPool:
    """The persistent pool for *nprocs* workers (spawned on first use,
    revived if its workers died)."""
    global _ATEXIT_REGISTERED
    pool = _POOLS.get(nprocs)
    if pool is not None:
        if not pool.alive():
            pool.respawn()
        return pool
    if not _ATEXIT_REGISTERED:
        atexit.register(shutdown_runtime)
        _ATEXIT_REGISTERED = True
    install_signal_handlers()  # best-effort; no-op off the main thread
    pool = WorkerPool(nprocs)
    _POOLS[nprocs] = pool
    return pool


def shutdown_runtime() -> None:
    """Terminate every worker pool, then release the shared-memory arena
    and any other segment this process still has registered.  Safe to
    call repeatedly; also runs atexit, from ``clear_plan_cache()`` and
    on SIGTERM."""
    for pool in list(_POOLS.values()):
        try:
            pool.shutdown()
        except Exception:
            pass
    _POOLS.clear()
    unlink_leftovers()


def runtime_info() -> Dict[int, Dict[str, object]]:
    """Live pools: worker pids, spawn generations, installed programs."""
    return {
        nprocs: {"pids": pool.pids(), "spawns": pool.spawns,
                 "installed": len(pool.installed)}
        for nprocs, pool in _POOLS.items()
    }
