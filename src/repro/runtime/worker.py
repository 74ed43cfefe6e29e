"""Worker process main loop — and the one real-process schedule.

:func:`run_sequence` is the overlap schedule, stated once for every
real-process transport, over the plan's own node kernels — the regions
the in-process tiers execute, through the same rows
(:func:`repro.machine.fused._lane_row`) and entries: the pool workers
below run it over :class:`QueueTransport` (global arrays in shared
memory, one inbox queue per worker, the pool's ``mp.Barrier``), the MPI
ranks of :mod:`repro.mpi.rank` over ``MpiTransport`` (private rank
memories, ``Irecv``/``Isend``/``Waitall``).  Per clause:

1. **gather**    — one lane row per read of each owned node: a view of
                   the array where every lane is resident (a pre-state
                   copy only of the write target), else a buffer holding
                   the resident lanes, the rest left to fill;
2. **post**      — tell the transport which ``(dst node, src node, read
                   pos)`` messages this clause expects (MPI posts its
                   ``Irecv``s here, before anything is sent);
3. **send**      — the send regions of pre-state, one message per
                   (read, peer), row-major = lexicographic lane order;
4. **barrier**   — the pre-commit barrier: every send and row copy on
                   every process happened against pre-state.  Every
                   commit of clause *k* sits between pre-commit barrier
                   *k* and *k+1* on every process, and clause *k*
                   commits nothing but its write target — which is why
                   the rows of every other array may stay views;
5. **interior**  — the interior block commits through its write region
                   while messages are in flight;
6. **drain**     — the transport delivers the expected messages into
                   the rows' fill regions;
7. **boundary**  — the remaining blocks commit; then the transport
                   completes its sends.

Each worker owns a command pipe to the parent, one inbox queue (its end
of the inter-node message fabric) and a slice of the pool's shared phase
table.  Installed programs are kept in a small LRU keyed by the
program's token; the kernel source is ``exec``-compiled once per
install, exactly like the fused backend does in-process.

Every blocking operation carries the remaining per-run timeout, so a
worker never hangs: it reports a failure (with its phase) and the parent
turns that into a :class:`~repro.runtime.pool.WorkerCrashError`.
"""

from __future__ import annotations

import os
import queue as queue_mod
import time
import traceback
from collections import OrderedDict
from typing import Dict

import numpy as np

from ..machine.fused import _lane_entry, _lane_row, region_entry
from .shm import attach_segment
from .stats import (
    PH_BARRIER,
    PH_BOUNDARY,
    PH_DELAY,
    PH_DONE,
    PH_DRAIN,
    PH_GATHER,
    PH_IDLE,
    PH_INSTALL,
    PH_INTERIOR,
    PH_SEND,
    RuntimeStats,
    phase_of,
)

__all__ = ["Installed", "QueueTransport", "run_sequence", "worker_main"]

_PLAN_LRU = 64


def _compile_kernel(source: str):
    ns: Dict[str, object] = {"_np": np}
    exec(compile(source, "<mp-kernel>", "exec"), ns)  # noqa: S102
    return ns["_rhs"], ns.get("_guard")


class Installed:
    """One installed program on this process: its node kernels, the
    entry that computes and commits one lane block (``entry(block,
    rows, out) -> stored``, as in :mod:`repro.machine.fused`) and the
    reusable send buffers of :class:`QueueTransport`.

    When the payload carries a native scalar-loop source and this
    process's numba probe succeeds, the njit dispatcher is compiled here
    — once per install, so pipelined time loops never pay JIT in the hot
    path — and replaces the NumPy entry; any probe or compile failure
    silently keeps the NumPy kernel (same results, the parent's trace
    already notes availability)."""

    def __init__(self, payload):
        (self.token, self.flavor, source, self.nreads, self.write_name,
         self.my_nodes, native_source) = payload
        self.entry = region_entry(*_compile_kernel(source))
        self.native = False
        self.bufs: Dict[tuple, np.ndarray] = {}
        if native_source is not None:
            from ..pipeline.native import compile_native_entry, native_support

            if native_support().available:
                try:
                    self.entry = _lane_entry(
                        compile_native_entry(native_source)[0])
                    self.native = True
                except Exception:
                    pass


def run_sequence(insts, steps, swap, flags, arrays, transport):
    """``steps`` iterations of the installed clause sequence *insts*
    against the global *arrays*, every clause in the order of the module
    docstring; returns ``(RuntimeStats, {node: counters})``.

    Every process executes the same barrier sequence (one pre-commit
    wait per clause, plus one end-of-clause wait where ``flags[k]`` keeps
    the barrier), so barrier generations stay globally ordered.  The
    end-of-clause barrier is skipped at fused boundaries — the fusion
    certificate rules out cross-processor traffic there — and after the
    very last clause of the very last step.  Buffer pairs in *swap* are
    exchanged in the local array dict after every step (zero-copy; the
    parent maps names back accordingly).  A single clause is the
    sequence of one program with ``steps=1``.

    *transport* supplies only ``post/send/barrier/drain/finish`` and
    ``set_phase`` (progress reporting for crash attribution)."""
    t_start = time.perf_counter()
    nodes = sorted({nd.p for inst in insts for nd in inst.my_nodes})
    first = nodes[0] if nodes else -1
    stats = RuntimeStats(rank=transport.rank, pid=os.getpid(),
                         nodes=tuple(nodes),
                         native=any(inst.native for inst in insts))
    counts = {p: {"sends": 0, "recvs": 0, "elements_sent": 0,
                  "elements_received": 0, "local_updates": 0,
                  "iterations": 0, "barriers": 0} for p in nodes}
    set_phase = transport.set_phase

    def barrier() -> None:
        t0 = time.perf_counter()
        transport.barrier(first)
        stats.barrier_s += time.perf_counter() - t0

    def deliver(dst, row, fill, payload) -> None:
        fill.put(row, payload.reshape(fill.shape))
        c = counts[dst]
        c["recvs"] += 1
        c["elements_received"] += int(payload.size)
        stats.recv_count += 1
        stats.recv_bytes += int(payload.nbytes)

    def commit(inst, rows_by, phase, interior: bool) -> None:
        t0 = time.perf_counter()
        out = arrays[inst.write_name]
        for node in inst.my_nodes:
            blocks = node.blocks if not interior else \
                () if node.interior is None else (node.interior,)
            if blocks:
                set_phase(phase, node.p)
                counts[node.p]["local_updates"] += sum(
                    int(inst.entry(blk, rows_by[node.p], out))
                    for blk in blocks)
        stats.kernel_s += time.perf_counter() - t0

    nclauses = len(insts)
    for step in range(steps):
        for k, inst in enumerate(insts):
            # ---- gather: the lane rows; what they lack is expected -------
            rows_by = {}
            expect = []  # (dst node, src node, read pos, row, fill region)
            for node in inst.my_nodes:
                set_phase(PH_GATHER, node.p)
                counts[node.p]["iterations"] += node.n
                rows = rows_by[node.p] = [
                    _lane_row(r, arrays[r.name], node.shape,
                              r.name == inst.write_name)
                    for r in node.reads]
                expect += [(node.p, src, r.pos, row, fill)
                           for r, row in zip(node.reads, rows)
                           for src, fill in r.sources]
            transport.post(step * nclauses + k, expect)

            # ---- send: pre-state payloads, one per (read, peer) ----------
            for node in inst.my_nodes:
                set_phase(PH_SEND, node.p)
                c = counts[node.p]
                for s in node.sends:
                    c["iterations"] += s.count
                    for q, region in s.peers:
                        buf = transport.send(inst, node.p, s.pos, q,
                                             region.full(arrays[s.name]))
                        c["sends"] += 1
                        c["elements_sent"] += int(buf.size)
                        stats.send_count += 1
                        stats.send_bytes += int(buf.nbytes)

            # ---- pre-commit barrier --------------------------------------
            barrier()
            for node in inst.my_nodes:
                counts[node.p]["barriers"] += 1

            # ---- interior (messages may still be in flight), drain,
            # boundary, send completion ------------------------------------
            commit(inst, rows_by, PH_INTERIOR, True)
            set_phase(PH_DRAIN, first)
            transport.drain(deliver)
            commit(inst, rows_by, PH_BOUNDARY, False)
            transport.finish()

            if flags[k] and not (step == steps - 1 and k == nclauses - 1):
                barrier()
        for a, b in swap:
            arrays[a], arrays[b] = arrays[b], arrays[a]

    set_phase(PH_DONE, first)
    stats.total_s = time.perf_counter() - t_start
    return stats, counts


class QueueTransport:
    """The pool's transport: payloads travel over one inbox queue per
    worker, matched by ``(dst node, src node, read pos)`` under a
    ``(run id, clause seq)`` tag; the barrier is the pool's
    ``mp.Barrier``; progress goes to the shared phase table.  One
    instance lives as long as its worker; :meth:`start` arms it for a
    run."""

    def __init__(self, rank, nprocs, inboxes, barrier, phase_table):
        self.rank = rank
        self.nprocs = nprocs
        self.inboxes = inboxes
        self.mp_barrier = barrier
        self.phase_table = phase_table

    def set_phase(self, idx: int, node: int = -1) -> None:
        self.phase_table[2 * self.rank] = idx
        self.phase_table[2 * self.rank + 1] = node

    def start(self, run_id, timeout: float) -> None:
        self.run_id = run_id
        self.deadline = time.monotonic() + timeout
        self.timeout = timeout
        # early messages of later clauses: at a fused (barrier-free)
        # clause boundary a fast peer may already be sending for the
        # next clause while this worker still drains the current one
        self.stash: Dict[tuple, list] = {}

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError(f"worker {self.rank} exceeded the "
                               f"{self.timeout:.1f}s run timeout")
        return left

    def post(self, seq: int, expect) -> None:
        self.rid = (self.run_id, seq)
        self.missing = {(dst, src, pos): (row, fill)
                        for dst, src, pos, row, fill in expect}

    def send(self, inst, p, pos, q, values) -> np.ndarray:
        # Payload buffers are reused across steps of a pipelined loop
        # (and across runs): between two uses of the same (program,
        # node, read, peer) buffer sits at least one global pre-commit
        # barrier that every worker only passes after the previous
        # message was drained — i.e. fully pickled off this buffer by
        # the queue's feeder thread — so depth-1 reuse can never corrupt
        # an in-flight message.
        buf = inst.bufs.get((p, pos, q))
        if buf is None:
            buf = inst.bufs[p, pos, q] = np.empty(values.shape)
        np.copyto(buf, values)
        self.inboxes[q % self.nprocs].put((self.rid, q, p, pos, buf))
        return buf

    def barrier(self, node: int) -> None:
        self.set_phase(PH_BARRIER, node)
        self.mp_barrier.wait(self.remaining())

    def drain(self, deliver) -> None:
        missing, rid = self.missing, self.rid
        inbox = self.inboxes[self.rank]
        early = self.stash.pop(rid, [])
        while missing:
            if early:
                dst, src, pos, payload = early.pop()
            else:
                try:
                    mid, dst, src, pos, payload = inbox.get(
                        timeout=self.remaining())
                except queue_mod.Empty:
                    raise TimeoutError(
                        f"worker {self.rank} timed out draining messages "
                        f"({len(missing)} pending)") from None
                if mid != rid:
                    if mid[0] == rid[0] and mid[1] > rid[1]:
                        self.stash.setdefault(mid, []).append(
                            (dst, src, pos, payload))
                    # else: stale message from an aborted run — discard
                    continue
            entry = missing.pop((dst, src, pos), None)
            if entry is not None:
                deliver(dst, entry[0], entry[1],
                        np.asarray(payload, dtype=np.float64))

    def finish(self) -> None:
        pass  # a queue put completes on its own


def _attached(shm_spec, untrack, body):
    """Attach the run's segments, call ``body(arrays)``, always detach."""
    segs, arrays = {}, {}
    try:
        for name, (segname, shape) in shm_spec.items():
            seg = attach_segment(segname, untrack=untrack)
            segs[name] = seg
            arrays[name] = np.ndarray(shape, dtype=np.float64, buffer=seg.buf)
        return body(arrays)
    finally:
        arrays.clear()
        for seg in segs.values():
            try:
                seg.close()
            except Exception:
                # a traceback frame can pin a view on the error path;
                # the fd is reclaimed when the pool respawns this worker
                pass


def worker_main(rank, nprocs, conn, inboxes, barrier, phase_table,
                untrack=False):
    """Entry point of one pool worker (runs until exit/EOF)."""
    plans: "OrderedDict[int, Installed]" = OrderedDict()
    transport = QueueTransport(rank, nprocs, inboxes, barrier, phase_table)
    set_phase = transport.set_phase

    def run(insts, steps, swap, flags, fault_delay, arrays):
        if fault_delay is not None and fault_delay[0] == rank:
            # test hook: park this worker so crash/timeout paths are
            # deterministically exercisable
            set_phase(PH_DELAY, min((nd.p for inst in insts
                                     for nd in inst.my_nodes), default=-1))
            time.sleep(float(fault_delay[1]))
        return run_sequence(insts, steps, swap, flags, arrays, transport)

    set_phase(PH_IDLE)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        kind = msg[0]
        if kind == "plan":
            set_phase(PH_INSTALL)
            try:
                inst = Installed(msg[1])
                plans[inst.token] = inst
                while len(plans) > _PLAN_LRU:
                    plans.popitem(last=False)
                conn.send(("planok", inst.token))
            except Exception:
                conn.send(("err", -1, rank, "install", -1,
                           traceback.format_exc()))
            set_phase(PH_IDLE)
        elif kind == "runseq":
            (_, tokens, run_id, shm_spec, steps, swap, flags,
             timeout, fault_delay) = msg
            try:
                insts = []
                for token in tokens:
                    inst = plans.get(token)
                    if inst is None:
                        raise RuntimeError(
                            f"program {token} is not installed on "
                            f"worker {rank}")
                    insts.append(inst)
                transport.start(run_id, timeout)
                stats, counts = _attached(
                    shm_spec, untrack, lambda arrays: run(
                        insts, steps, swap, flags, fault_delay, arrays))
                conn.send(("done", run_id, rank, stats, counts))
            except BaseException:
                phase, node = phase_of(phase_table, rank)
                try:
                    conn.send(("err", run_id, rank, phase, node,
                               traceback.format_exc()))
                except Exception:
                    return
            finally:
                set_phase(PH_IDLE)
        elif kind == "ping":
            conn.send(("pong", rank, os.getpid()))
        elif kind == "exit":
            return
