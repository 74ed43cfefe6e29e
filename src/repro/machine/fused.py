"""The in-process kernel executor (``backend="fused"``).

Where the scalar templates walk ``Modify_p`` / ``Reside_p`` element by
element on every run, this executor runs the **compile-once** kernels
of the `lower-kernels` pass (:mod:`repro.pipeline.kernels`; the flavor a
run needs is built, and bounds-audited, on its first use): every
membership set and address is a precomputed
:class:`~repro.pipeline.region.Region` — slices of node memory wherever
Table I yields a progression, vectors only for the irregular remainder —
and the clause body is one generated kernel: straight-line NumPy ufunc
calls writing into numbered scratch slots.

There is one executor, :class:`KernelTier`, and one instance of it,
``FUSED``.  Its *entry* computes and commits one lane block,
``entry(block, rows, out, origin) -> stored`` (:func:`region_entry`):
the generated ufunc calls over the rows (:func:`_kernel`), a guard
mask, one store through the block's write region.  The entry is every
kernel call — :meth:`KernelTier._commit`'s, the mp workers' and the
MPI ranks' — and each runs under
``np.errstate(all="ignore")``, one per clause: the operator table
defines every result.
It passes the kernel the calling thread's slot arrays for the block
(:func:`~repro.pipeline.kernels.scratch`: dtype and shape fixed when
the block was built), so a warm kernel call allocates nothing, and two
threads running kernels at once never share a slot.

A block whose read rows share one row pitch runs as **spans**
(:func:`_spans`): the same kernel over ONE flat run of memory per read,
so each ufunc is one inner loop rather than one per lane row; the
padding lanes between rows are computed and never stored.  ``dist``
nodes over their ghost frames and the ``union`` blocks (in process
and on mp workers: whole grid rows) span; ``gdist`` blocks stay nd.

A shared run is the §2.9 template with every node in one address space:
the nodes' ``Modify_p`` partition the written domain and every phase
reads pre-state, so the P node programs add up to one — the ``union``
flavor, ONE block over every node's lanes (an mp worker's: over the
nodes it owns), one kernel call per clause.  Each node is still charged
its own iterations, stores and barrier, read off its keys
(:attr:`~repro.pipeline.kernels.NodeKernel.parts`, :func:`charge_stores`).

The distributed run is the §2.10 template: send, receive, then update
``Modify_p``.  In process (the ``dist`` flavor) each node commits its
whole ``Modify_p`` as ONE block after the drain — with every node on
one process no message is in flight to overlap, and one call over the
node's block beats an interior block and its boundary strips.  The
real-process flavor (``gdist``) keeps the overlap split: the *interior*
block commits while messages are in flight, the *boundary* strips after
the drain.  Under a latency model :class:`LocalTransport` still charges
the split's interior lanes before the drain
(:attr:`~repro.pipeline.kernels.NodeKernel.inner`), so the modeled
clocks are the overlap schedule's.  The schedule is stated once, as
:func:`repro.runtime.worker.run_sequence`; in process every node sits
on the calling process and :class:`LocalTransport` carries the
messages (and, under a latency model, the virtual clocks), where the
mp workers and MPI ranks pass their own transports.  All of them run
the same node kernels through the same rows (:func:`_lane_row`) and
entry.

Statistics match the element oracle of ``tests/test_regions.py``
(``expected_counters``: membership vectors from ``enumerate(p)`` and
``proc_array`` / ``local_array``) counter for counter, and results are
bit-identical across tiers (``TestAllBackendsAgree``): a read row is
a view of node memory where the read array is not the write target and
a pre-state copy where it is, row-major order over a region is the
lexicographic lane order of every payload, and a repeated store address
resolves last-lane-wins exactly like the fancy-indexed NumPy store.

Node memory has ghost cells: a distributed read with remote lanes is,
where the keys allow (a unit-stride image meeting the node's own block —
every stencil shift), a view of the node's *framed* buffer
(``LocalMemory.frame``, margins derived by ``kernels._build_nodes``) and
the drain writes each received strip into the ghost cells beside the
tile; other fetched reads assemble a row buffer (:func:`_lane_row`).

A plan with no fused form raises :class:`KernelBuildError` (reason in
``args[0]``), which the dispatcher catches to fall to the scalar
template with a trace note.  ``strict=True`` composes the static
verifier with execution: a clause whose ``verify-plan`` report carries
any RACE* or COMM* finding is refused with the diagnostic code in the
error message.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

import numpy as np

from ..pipeline.kernels import KernelBuildError, flavor_nodes, scratch
from .distributed import DistributedMachine
from .scheduler import DeadlockError
from .shared import SharedMachine

__all__ = [
    "FUSED",
    "FusedStrictError",
    "KernelTier",
    "LocalTransport",
    "charge_stores",
    "check_strict",
    "region_entry",
    "run_shared_fused",
]


class FusedStrictError(RuntimeError):
    """Fused execution refused under ``strict``: the static verifier
    flagged the clause (the first offending code is in the message)."""


def check_strict(ir, strict: bool) -> None:
    """Refuse fused execution of statically-flagged clauses.

    With *strict*, a ``verify-plan`` report (run on demand if the plan
    was compiled without ``verify=True``) carrying any RACE* or COMM*
    diagnostic aborts before any node program runs."""
    if not strict:
        return
    report = ir.diagnostics
    if report is None:
        from ..analysis import verify_ir

        report = verify_ir(ir)
        ir.diagnostics = report
    offending = [d for d in report.diagnostics
                 if d.code.startswith(("RACE", "COMM"))]
    if offending:
        codes = ", ".join(sorted({d.code for d in offending}))
        raise FusedStrictError(
            f"fused execution refused under --strict: static verifier "
            f"flagged {codes} ({offending[0].message})"
        )


#: a span-capable block (:attr:`~repro.pipeline.kernels._Block.span`)
#: runs as flat spans only while the padding — the cells between lane
#: rows, computed and never stored — adds at most this fraction to its
#: lanes.  One E19 body and its store over a 191 x 191 block, span time
#: over nd time by padding (2 shared vCPUs, NumPy 2.4, median of 400):
#: 0.01 -> 0.67, 0.25 -> 0.78-0.82, 0.5 -> 0.92, 0.75 -> 1.00-1.06,
#: 1.0 -> 1.27 (a half-width block of a global array)
SPAN_PAD = 0.25


def _spans(blk, rows, origin):
    """A span block's read rows as ONE flat run each and the padded
    layout ``(h0, W1, ...)`` they share — ``None`` (keep nd) unless every
    row has one strides tuple, views a C-contiguous array and pads at
    most :data:`SPAN_PAD`.  A run is
    :meth:`~repro.pipeline.region.Region.span` of the memory the row
    views (*origin*: ``(reads, arrays, write)``), or of the row itself
    where it is a copy: pre-state, or memory that is not float64."""
    st, lanes = rows[0].strides, blk.pos.shape
    if st[-1] != rows[0].itemsize or any(r.strides != st for r in rows):
        return None
    # lanes from the first to the last, row pitch included
    end = 1 + sum((h - 1) * s for h, s in zip(lanes, st)) // st[-1]
    if end > (1 + SPAN_PAD) * blk.pos.size:
        return None
    reads, arrays, write = origin
    try:
        spans = [blk.pos.span(row, end) if r.name == write
                 or arrays[r.name].dtype != np.float64
                 else r.mem.span(arrays[r.name], end)
                 for r, row in zip(reads, rows)]
    except ValueError:  # a row viewing no C-contiguous array
        return None
    return spans, (lanes[0],) + tuple(a // b for a, b in zip(st, st[1:]))


def _kernel(blk, rows, origin, rhs, guard):
    """The one kernel entry: the body (and guard) over one lane block,
    ``-> (values in lane layout, mask)``.  A span block
    (:attr:`~repro.pipeline.kernels._Block.span`; *origin*: what its
    rows were cut from, :func:`_lane_rows`) whose rows allow it
    (:func:`_spans`) runs the same ``_rhs`` over one flat run per read
    into span slots and hands back the lane-shaped view of its result;
    any other call runs over the block's nd views of the rows.  Either way the kernel writes into
    this thread's slots (:func:`~repro.pipeline.kernels.scratch`).
    Callers hold ``np.errstate(all="ignore")``: the operator table
    defines every result, and padding lanes may compute on any cell."""
    cut = _spans(blk, rows, origin) if origin is not None and blk.span \
        else None
    if cut is not None:
        spans, padded = cut
        flat, nd = scratch(blk.scratch, padded)
        res = rhs(blk.grids, spans, flat)
        # the result is a slot or a read row, in lane layout; or a scalar
        for x, v in itertools.chain(zip(flat, nd), zip(spans, rows)):
            if res is x:
                return v, None
        return res, None
    sub = [blk.pos.take(row) for row in rows]
    s = scratch(blk.scratch)
    mask = None if guard is None else guard(blk.grids, sub, s)
    return rhs(blk.grids, sub, s), mask


def region_entry(rhs, guard):
    """The generated NumPy kernel over one lane block —
    ``entry(block, rows, out, origin=None, node=None, stats=None) ->
    stored``: :func:`_kernel`, then one store through the block's write
    region, charged to *stats* when given (:func:`charge_stores`).  Its
    caller,
    :func:`~repro.runtime.worker.run_sequence` (in process, on mp
    workers and on MPI ranks alike), holds ``np.errstate(all="ignore")``
    around each clause's kernel calls."""

    def entry(blk, rows, out, origin=None, node=None, stats=None) -> int:
        values, mask = _kernel(blk, rows, origin, rhs, guard)
        stored = blk.write.store(out, values, mask)
        if stats is not None:
            charge_stores(node, stats, stored, mask)
        return stored

    return entry


def charge_stores(nk, stats, stored: int, mask) -> None:
    """Charge one commit of node kernel *nk* — *stored* stores under the
    guard *mask* — to the nodes it runs (:attr:`NodeKernel.parts`): all
    of them to a one-node kernel, else to each node its lanes, or its
    positions of the mask (read before the next kernel call: the mask
    sits in a scratch slot)."""
    if len(nk.parts) == 1:
        stats[nk.p].local_updates += stored
        return
    if mask is not None:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), nk.shape)
    for p, n, pos in nk.parts:
        stats[p].local_updates += n if mask is None or not n \
            else int(np.count_nonzero(pos.take(mask)))


def _lane_row(r, arr, shape, prestate: bool) -> np.ndarray:
    """One read's float64 lane row from node (or global) memory *arr*.

    Every lane resident: the memory region itself — a view, unless *arr*
    is the write target (*prestate*: commits must not show through) or a
    vector-keyed gather already copied it.  Otherwise a buffer holding
    the resident lanes; the rest arrive as messages."""
    if r.lanes is None:
        row = r.mem.full(arr)
        return np.array(row, dtype=np.float64) if prestate and r.mem.sliced \
            else np.asarray(row, dtype=np.float64)
    row = np.empty(shape)
    r.lanes.put(row, r.mem.take(arr))
    return row


def _lane_rows(node, arrays, write: str):
    """A node's lane rows (:func:`_lane_row`) and, when its block may run
    as spans, what :func:`_spans` cuts them from: ``(reads, arrays,
    write)`` (else ``None``)."""
    rows = [_lane_row(r, arrays[r.name], node.shape, r.name == write)
            for r in node.reads]
    span = node.blocks and node.blocks[0].span
    return rows, (node.reads, arrays, write) if span else None


class KernelTier:
    """The one in-process executor of compile-once kernels: the
    ``fused`` (NumPy) tier."""

    #: "this plan has no form on this tier" (reason in ``args[0]``)
    no_form = KernelBuildError

    def bind(self, ir, flavor: str, strict: bool):
        """Gate on the static verifier, then resolve ``(kernels, nodes,
        entry)`` for one flavor or raise :attr:`no_form`.  Sequential
        clauses and replicated writes never get kernels built, so they
        end here too."""
        check_strict(ir, strict)
        k = ir.kernels
        if k is None:
            raise self.no_form("no fused kernels on the plan")
        nodes = flavor_nodes(ir, flavor, strict, self.no_form)
        return k, nodes, region_entry(k.rhs, k.guard)

    @staticmethod
    def _commit(k, union, entry, genv, stats) -> None:
        """One ``//`` clause as one kernel call over the *union* block:
        its read rows against pre-state (a copy of the write target's),
        the guard and the body, then one store — a repeated address
        resolves last-lane-wins in lexicographic order over the union,
        which restricted to the one node writing it is that node's
        order.  Each node is charged its lanes and its stores
        (:func:`charge_stores`)."""
        for p, n, _ in union.parts:
            stats[p].iterations += n
        if not union.n:
            return
        rows, origin = _lane_rows(union, genv, k.write_name)
        with np.errstate(all="ignore"):  # one block holds every lane
            entry(union.blocks[0], rows, genv[k.write_name], origin, union,
                  stats)

    # -- shared memory ------------------------------------------------------

    def run_shared(
        self,
        ir,
        env: Dict[str, np.ndarray],
        machine: Optional[SharedMachine] = None,
        strict: bool = False,
    ) -> SharedMachine:
        """Execute a ``//`` clause as one kernel call over the union of
        every node's ``Modify_p`` (:meth:`_commit`); each node is charged
        its own counters and one barrier, like the scalar template."""
        k, (union,), entry = self.bind(ir, "union", strict)
        if machine is None:
            machine = SharedMachine(ir.pmax, env)
        self._commit(k, union, entry, machine.env, machine.stats)
        for p in range(ir.pmax):
            machine.stats[p].barriers += 1
        return machine

    def run_group(self, irs, machine: SharedMachine,
                  strict: bool = False) -> SharedMachine:
        """Execute a *fused clause group* (consecutive clauses whose
        barriers were proven removable): each clause in order as one
        kernel call over its union block (:meth:`_commit`).

        The walk is clause-major, where the scalar group walk
        (``program._run_group_scalar``, the oracle) is node-major.  The
        fusion certificate (no cross-processor flow/anti/output
        dependence, no intra-clause overlap) is what makes the two
        orders produce identical values; bit-identity and equal
        per-node counters are asserted by the equivalence tests.

        Every clause is bound before the first commit, so a group with
        no form on this tier raises :attr:`no_form` with memory
        untouched.  One barrier is charged per node for the whole group,
        not per clause."""
        bound = [self.bind(ir, "union", strict) for ir in irs]
        for k, (union,), entry in bound:
            self._commit(k, union, entry, machine.env, machine.stats)
        for p in range(machine.pmax):
            machine.stats[p].barriers += 1
        return machine

    # -- distributed memory (overlap schedule) -------------------------------

    def run_distributed(
        self,
        ir,
        env: Dict[str, np.ndarray],
        machine: Optional[DistributedMachine] = None,
        model=None,
        strict: bool = False,
    ) -> DistributedMachine:
        """Place *env* (unless a pre-placed *machine* is given: each
        array lands in the ghost frame its node kernels ask for), run the
        clause as :func:`~repro.runtime.worker.run_sequence` with every
        node on this process over a :class:`LocalTransport`, return the
        machine."""
        from ..runtime.worker import Installed, run_sequence

        k, nodes, entry = self.bind(ir, "dist", strict)
        if machine is None:
            machine = DistributedMachine(ir.pmax, model=model)
            decs = {ir.write.name: ir.write.dec}
            for acc in ir.reads:
                decs.setdefault(acc.name, acc.dec)
            for name, dec in decs.items():
                # straight into the frame the node kernels ask for: the
                # array is copied in once, not again when it is framed
                machine.place(name, env[name], dec, {
                    nk.p: nk.margins[name] for nk in nodes
                    if name in nk.margins})
        memories = machine.memories

        def memory(nk):  # each array's core, or its ghost frame
            mem = memories[nk.p]
            if not nk.margins:
                return mem.arrays
            # frames first: a wider request moves the core
            frames = {name: mem.frame(name, m)
                      for name, m in nk.margins.items()}
            return {**mem.arrays, **frames}

        inst = Installed((0, "dist", None, k.nreads, k.write_name,
                          ir.pmax, nodes), entry)
        run_sequence([inst], 1, (), (True,), (True,), memory,
                     LocalTransport(machine.stats, nodes, machine.model),
                     machine.stats)
        return machine


class LocalTransport:
    """:func:`~repro.runtime.worker.run_sequence`'s transport with every
    node on this process: a send files a fresh pre-state copy under
    ``(dst, src, read pos)``, the drain delivers each into its fill
    region, the barrier is free (every node sends before any commits).
    A missing or stray message is a :class:`DeadlockError` in the
    scheduler's shape, raised before anything is delivered.  Under a
    latency model the nodes' clocks advance here: a send is stamped
    ``vtime + alpha + beta * n``, the interior is charged before the
    drain folds in the latest stamp, the boundary after it, and the end
    of the clause syncs every node to the laggard."""

    rank = 0

    def __init__(self, stats, nodes, model=None):
        self.stats, self.nodes, self.model = stats, nodes, model
        self.phase, self.inbox, self.stamps, self.stray = None, {}, {}, []

    def set_phase(self, idx: int, node: int = -1, seq: int = -1) -> None:
        self.phase = idx, node, seq

    def post(self, seq: int, expect) -> None:
        self.missing = {(dst, src, pos): (into, fill)
                        for dst, src, pos, into, fill in expect}

    def send(self, inst, p, pos, q, values) -> np.ndarray:
        key = q, p, pos
        if key in self.inbox:
            self.stray.append(key)
        # row-major over the region = lexicographic lane order
        buf = self.inbox[key] = values.flatten()
        if self.model is not None:
            self.stamps[key] = self.stats[p].vtime \
                + self.model.message_time(buf.size)
        return buf

    def barrier(self, node: int) -> None:
        pass

    def drain(self, deliver) -> None:
        inbox, missing = self.inbox, self.missing
        if self.stray or inbox.keys() != missing.keys():
            raise self._mismatch()
        if self.model is not None:
            self._charge(lambda nk: nk.inner)
            for (dst, _, _), t in self.stamps.items():
                self.stats[dst].vtime = max(self.stats[dst].vtime, t)
        for key, (into, fill) in missing.items():
            deliver(key[0], into, fill, inbox[key])
        inbox.clear()

    def finish(self) -> None:
        if self.model is not None:
            self._charge(lambda nk: nk.n - nk.inner)
            vmax = max(self.stats[nk.p].vtime for nk in self.nodes)
            for nk in self.nodes:
                self.stats[nk.p].vtime = vmax
            self.stamps.clear()

    def _charge(self, lanes_of) -> None:
        for nk in self.nodes:
            self.stats[nk.p].vtime += self.model.t_element * lanes_of(nk)

    def _mismatch(self) -> DeadlockError:
        expected, sent = self.missing.keys(), self.inbox.keys()
        waits: Dict[int, tuple] = {}
        for dst, src, pos in sorted(expected - sent):
            waits[dst] = waits.get(dst, ()) + ((src, pos),)
        stray = sorted(((src, dst, pos) for dst, src, pos
                        in [*(sent - expected), *self.stray]),
                       key=lambda m: (m[1], m[0], m[2]))
        return DeadlockError(
            f"deadlock at the drain; nodes waiting for (src, pos): "
            f"{waits}; undelivered messages: {len(stray)} {stray!r}",
            blocked={p: ("probe", w) for p, w in waits.items()},
            undelivered=stray)


FUSED = KernelTier()

run_shared_fused = FUSED.run_shared
