"""Worker process main loop — and the one distributed kernel schedule.

:func:`run_sequence` is the overlap schedule, stated once for every
transport, over the plan's own node kernels, through the same rows
(:func:`repro.machine.fused._lane_row`) and entries: the pool workers
below run it over :class:`QueueTransport` (global arrays in shared
memory, one inbox queue per worker, the pool's shared-memory generation
barrier), the MPI ranks of :mod:`repro.mpi.rank` over ``MpiTransport``
(private rank memories, ``Irecv``/``Isend``/``Waitall``), and the
in-process ``fused`` run over :class:`repro.machine.fused.LocalTransport`
(every node on one rank, each in its own ``LocalMemory``).  Per clause:

1. **gather**    — one lane row per read of each owned node: a view of
                   the array (or ghost frame) where every lane is resident
                   (a pre-state copy only of the write target), else a
                   buffer holding the resident lanes, the rest left to fill;
2. **post**      — tell the transport which ``(dst node, src node, read
                   pos)`` messages this clause expects (MPI posts its
                   ``Irecv``s here, before anything is sent);
3. **send**      — the send regions of pre-state, one message per
                   (read, peer), row-major = lexicographic lane order;
4. **barrier**   — the pre-commit (phase) barrier: every send and row
                   copy on every process happened against pre-state.
                   Where :func:`repro.analysis.phase_barriers` proves no
                   process can observe another's commit (no messages, no
                   node reading another's writes of the target, the
                   preceding boundary barriered) the wait is skipped —
                   the §2.9 template's one wait per clause;
5. **interior**  — the interior block commits through its write region
                   while messages are in flight;
6. **drain**     — the transport delivers the expected messages into
                   their fill regions (of the row, or of the frame);
7. **boundary**  — the remaining blocks commit; then the transport
                   completes its sends;
8. **end-barrier** — the end-of-clause barrier, where the clause keeps
                   one.  Clause *k* commits nothing but its write target,
                   and a global wait (a kept pre-commit one, or the
                   end-of-clause one before or after) separates each of
                   its commits from every other clause's reads on other
                   processes — which is why the rows of every other
                   array may stay views.

Each worker owns a command pipe to the parent, one inbox queue (its end
of the inter-node message fabric), a slice of the pool's shared phase
table and its mappings of the parent's shared-memory arena, kept from
run to run (:func:`_attached`).  Installed programs are kept in a small
LRU keyed by the program's token; the kernel source is audited and
compiled once per install by :func:`repro.pipeline.kernels.compile_kernel`,
exactly as the fused backend does in process, and its entries take their
scratch slots from the worker's own arena.

Every blocking operation carries the remaining per-run timeout, so a
worker never hangs: it reports a failure (with its phase) and the parent
turns that into a :class:`~repro.runtime.pool.WorkerCrashError`.
"""

from __future__ import annotations

import os
import queue as queue_mod
import resource
import time
import traceback
from collections import OrderedDict
from typing import Dict

import numpy as np

from ..machine.fused import _lane_rows, region_entry
from ..machine.stats import NodeStats
from ..pipeline.kernels import compile_kernel, owner
from .shm import ARENA, attach_segment
from .stats import (
    PH_BARRIER,
    PH_BOUNDARY,
    PH_DELAY,
    PH_DONE,
    PH_DRAIN,
    PH_END_BARRIER,
    PH_GATHER,
    PH_IDLE,
    PH_INSTALL,
    PH_INTERIOR,
    PH_SEND,
    SLOTS,
    RuntimeStats,
    phase_of,
)

__all__ = ["Installed", "QueueTransport", "run_sequence", "worker_main"]

_PLAN_LRU = 64


class Installed:
    """One installed program on this process: its node kernels (of the
    plan's ``pmax`` nodes), the entry that computes and commits one lane
    block (``entry(block, rows, out) -> stored``, as in
    :mod:`repro.machine.fused`; compiled from the payload's source
    unless given: a source that fails the KRN002 audit is refused) and
    the reusable send buffers of :class:`QueueTransport`."""

    def __init__(self, payload, entry=None):
        (self.token, self.flavor, source, self.nreads, self.write_name,
         self.pmax, self.my_nodes) = payload
        self.entry = entry if entry is not None \
            else region_entry(*compile_kernel(source))
        self.bufs: Dict[tuple, np.ndarray] = {}


def run_sequence(insts, steps, swap, flags, phase, memory, transport,
                 counts=None):
    """``steps`` iterations of the installed clause sequence *insts*,
    every clause in the order of the module docstring, against the
    arrays ``memory(node)`` returns for each node kernel — the global
    arrays on a real process, the node's ``LocalMemory`` with its ghost
    frames in process; returns ``(RuntimeStats, counts)``, *counts*
    mapping each node to the ``NodeStats`` its counters went to — every
    node a kernel runs (:attr:`~repro.pipeline.kernels.NodeKernel.parts`:
    one, or a ``union`` kernel's run of nodes) is charged its own
    iterations, stores and barriers.

    Every process executes the same barrier sequence, so barrier
    generations stay globally ordered: a pre-commit wait where
    ``phase[k]`` keeps it, an end-of-clause wait where ``flags[k]``
    does.  The end-of-clause barrier is skipped at fused boundaries —
    the fusion certificate rules out cross-processor traffic there — and
    after the very last clause of the very last step.  Every clause
    counts one §2.9 barrier per node (``NodeStats.barriers``) whichever
    waits it makes; ``RuntimeStats.barrier_waits`` counts the waits.
    Buffer pairs in *swap* are exchanged in each memory dict after every
    step (zero-copy; the parent maps names back accordingly).  A single
    clause is the sequence of one program with ``steps=1``.

    *transport* supplies only ``post/send/barrier/drain/finish`` and
    ``set_phase(phase, node, seq)`` (progress reporting for crash
    attribution)."""
    t_start = time.perf_counter()
    nodes = sorted({p for inst in insts for nd in inst.my_nodes
                    for p, _, _ in nd.parts})
    first = nodes[0] if nodes else -1
    stats = RuntimeStats(rank=transport.rank, pid=os.getpid(),
                         nodes=tuple(nodes))
    if counts is None:
        counts = {p: NodeStats() for p in nodes}
    set_phase = transport.set_phase

    def barrier(ph: int, seq: int) -> None:
        set_phase(ph, first, seq)
        t0 = time.perf_counter()
        transport.barrier(first)
        stats.barrier_s += time.perf_counter() - t0
        stats.barrier_waits += 1

    def deliver(dst, into, fill, payload) -> None:
        fill.put(into, payload.reshape(fill.shape))
        c = counts[dst]
        c.recvs += 1
        c.elements_received += int(payload.size)
        stats.recv_count += 1
        stats.recv_bytes += int(payload.nbytes)

    nclauses = len(insts)
    held = {}  # id -> every memory dict handed out (the swap's targets)
    for step in range(steps):
        for k, inst in enumerate(insts):
            write, entry = inst.write_name, inst.entry
            seq = step * nclauses + k
            # ---- gather: the lane rows; what they lack is expected -------
            work = []    # (node, memory, rows, their origin)
            expect = []  # (dst node, src node, read pos, buffer, fill)
            for node in inst.my_nodes:
                set_phase(PH_GATHER, node.p, seq)
                for p, n, _ in node.parts:
                    counts[p].iterations += n
                arrays = memory(node)
                held[id(arrays)] = arrays
                rows, origin = _lane_rows(node, arrays, write)
                for r, row in zip(node.reads, rows):
                    if r.sources:
                        # a ghost read's row is a view of its frame: the
                        # strips land in the ghost cells beside the tile
                        into = row if r.lanes is not None \
                            else arrays[r.name]
                        expect += [(node.p, src, r.pos, into, fill)
                                   for src, fill in r.sources]
                work.append((node, arrays, rows, origin))
            transport.post(seq, expect)

            # ---- send: pre-state payloads, one per (read, peer) ----------
            for node, arrays, _, _ in work:
                set_phase(PH_SEND, node.p, seq)
                c = counts[node.p]
                for s in node.sends:
                    c.iterations += s.count
                    for q, region in s.peers:
                        buf = transport.send(inst, node.p, s.pos, q,
                                             region.full(arrays[s.name]))
                        c.sends += 1
                        c.elements_sent += int(buf.size)
                        stats.send_count += 1
                        stats.send_bytes += int(buf.nbytes)

            # ---- pre-commit barrier (where the clause keeps one) ---------
            if phase[k]:
                barrier(PH_BARRIER, seq)
            for node, _, _, _ in work:
                for p, _, _ in node.parts:
                    counts[p].barriers += 1

            # ---- interior (messages may still be in flight), drain,
            # boundary, send completion; every kernel call of the clause
            # under one errstate: the operator table defines every result
            with np.errstate(all="ignore"):
                t0 = time.perf_counter()
                for node, arrays, rows, _ in work:
                    if node.interior is not None:
                        set_phase(PH_INTERIOR, node.p, seq)
                        entry(node.interior, rows, arrays[write], None,
                              node, counts)
                t1 = time.perf_counter()
                set_phase(PH_DRAIN, first, seq)
                transport.drain(deliver)
                t2 = time.perf_counter()
                for node, arrays, rows, origin in work:
                    if node.blocks:
                        set_phase(PH_BOUNDARY, node.p, seq)
                        for blk in node.blocks:
                            entry(blk, rows, arrays[write], origin, node,
                                  counts)
                stats.kernel_s += t1 - t0 + time.perf_counter() - t2
            transport.finish()

            if flags[k] and not (step == steps - 1 and k == nclauses - 1):
                barrier(PH_END_BARRIER, seq)
        for arrays in held.values():
            for a, b in swap:
                arrays[a], arrays[b] = arrays[b], arrays[a]

    set_phase(PH_DONE, first, -1)
    stats.total_s = time.perf_counter() - t_start
    return stats, counts


class QueueTransport:
    """The pool's transport: payloads travel over one inbox queue per
    worker, matched by ``(dst node, src node, read pos)`` under a
    ``(run id, clause seq)`` tag; the barrier is a generation count per
    worker in the pool's shared *arrivals* array; progress goes to the
    shared phase table.  One instance lives as long as its worker;
    :meth:`start` arms it for a run."""

    def __init__(self, rank, nprocs, inboxes, arrivals, phase_table):
        self.rank = rank
        self.nprocs = nprocs
        self.inboxes = inboxes
        self.arrivals = arrivals
        self.phase_table = phase_table
        self.generation = 0  # barriers this worker has passed

    def set_phase(self, idx: int, node: int = -1, seq: int = -1) -> None:
        base = SLOTS * self.rank
        self.phase_table[base:base + SLOTS] = idx, node, seq

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
        # barrier (a sending program keeps every one) that every worker
        # only passes after the previous message was drained — i.e.
        # fully pickled off this buffer by the queue's feeder thread —
        # so depth-1 reuse can never corrupt an in-flight message.
        buf = inst.bufs.get((p, pos, q))
        if buf is None:
            buf = inst.bufs[p, pos, q] = np.empty(values.shape)
        np.copyto(buf, values)
        self.inboxes[owner(q, inst.pmax, self.nprocs)].put(
            (self.rid, q, p, pos, buf))
        return buf

    def barrier(self, node: int) -> None:
        # publish this worker's arrival at the next generation, then
        # yield the CPU until every worker has published it too; the
        # array's lock is taken for both, a full memory barrier, so
        # every commit made before the wait is visible after it
        self.generation += 1
        gen, lock = self.generation, self.arrivals.get_lock()
        arrived = self.arrivals.get_obj()
        with lock:
            arrived[self.rank] = gen
        while True:
            with lock:
                if min(arrived) >= gen:
                    return
            self.remaining()
            os.sched_yield()

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


def _attached(maps, shm_spec, untrack):
    """The run's arrays over this worker's mappings *maps* (segment name
    -> ``(segment, view)``, kept across runs): a segment the spec names
    for the first time is attached, a mapping it no longer names is
    closed.  A segment name is never reused, so a mapping never goes
    stale while the spec names it."""
    named = {segname for segname, _ in shm_spec.values()}
    for segname in set(maps) - named:
        seg = maps.pop(segname)[0]  # the view goes with the entry
        try:
            seg.close()
        except Exception:
            # a view pinned elsewhere keeps the mapping open; it goes
            # when this worker exits
            pass
    for segname, shape in shm_spec.values():
        if segname not in maps:
            seg = attach_segment(segname, untrack=untrack)
            maps[segname] = seg, np.ndarray(shape, dtype=np.float64,
                                            buffer=seg.buf)
    return {name: maps[segname][1]
            for name, (segname, _) in shm_spec.items()}


def worker_main(rank, nprocs, conn, inboxes, arrivals, phase_table,
                untrack=False):
    """Entry point of one pool worker (runs until exit/EOF)."""
    # a forked worker inherits the parent's arena; dropping it unmaps
    # it here, so a segment the parent unlinks is not pinned for life
    ARENA.views.clear()
    ARENA.segs.clear()
    plans: "OrderedDict[int, Installed]" = OrderedDict()
    maps: Dict[str, tuple] = {}
    transport = QueueTransport(rank, nprocs, inboxes, arrivals, phase_table)
    set_phase = transport.set_phase

    def run(insts, steps, swap, flags, phase, fault_delay, arrays):
        if fault_delay is not None and fault_delay[0] == rank:
            # test hook: park this worker so crash/timeout paths are
            # deterministically exercisable
            set_phase(PH_DELAY, min((nd.p for inst in insts
                                     for nd in inst.my_nodes), default=-1))
            time.sleep(float(fault_delay[1]))
        return run_sequence(insts, steps, swap, flags, phase,
                            lambda node: arrays, transport)

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
            (_, tokens, run_id, shm_spec, steps, swap, flags, phase,
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
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                transport.start(run_id, timeout)
                stats, counts = run(insts, steps, swap, flags, phase,
                                    fault_delay,
                                    _attached(maps, shm_spec, untrack))
                stats.minflt = (resource.getrusage(resource.RUSAGE_SELF)
                                .ru_minflt - faults)
                conn.send(("done", run_id, rank, stats, counts))
            except BaseException:
                name, node, _ = phase_of(phase_table, rank)
                try:
                    conn.send(("err", run_id, rank, name, node,
                               traceback.format_exc()))
                except Exception:
                    return
            finally:
                set_phase(PH_IDLE)
        elif kind == "ping":
            conn.send(("pong", rank, os.getpid()))
        elif kind == "exit":
            return
