"""In-process kernel executors (``backend="fused"`` and ``"native"``).

Where the scalar templates walk ``Modify_p`` / ``Reside_p`` element by
element on every run, these executors run the **compile-once** kernels
built by the `lower-kernels` pass (:mod:`repro.pipeline.kernels`): every
membership set and address is a precomputed
:class:`~repro.pipeline.region.Region` — slices of node memory wherever
Table I yields a progression, vectors only for the irregular remainder —
and the clause body is one generated kernel.

There is one executor, :class:`KernelTier`, and two instances of it.
Both run the same schedule over the same per-read lane rows and differ
only in the *entry* that computes and commits one lane block,
``entry(block, rows, out) -> stored``:

``FUSED``
    the generated NumPy expression (:func:`region_entry`) over views of
    the rows, a guard mask, one store through the block's write region;
``NATIVE``
    the njit-compiled (or, under ``REPRO_NATIVE_INTERP``, exec-compiled)
    scalar loop of :mod:`repro.pipeline.native`, fed the lane vectors
    the regions materialize on demand (:func:`_lane_entry`).

The distributed program keeps the overlap schedule: post sends, post
non-blocking receives, commit the *interior* block while messages are
in flight, drain with Probe, then commit the *boundary* strips.  A plan
compiled without an interior split simply has no interior and degrades
to drain-then-compute — still bit-identical.  This is the schedule's
statement as a generator over the simulated mailbox; its one sibling,
blocking over real transports, is
:func:`repro.runtime.worker.run_sequence` (DESIGN.md says why the two
stay apart).  Both run the same node kernels through the same rows
(:func:`_lane_row`) and entries.

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

A plan with no form on a tier raises that tier's ``no_form`` exception
(reason in ``args[0]``), which the dispatcher catches to fall to the
next tier with a trace note.  ``strict=True`` composes the static
verifier with execution: a clause whose ``verify-plan`` report carries
any RACE* or COMM* finding (native: also any KRN* error) is refused with
the diagnostic code in the error message.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from ..analysis.kernel_sanitizer import check_kernels_strict
from ..pipeline.kernels import KernelBuildError
from ..pipeline.native import NativeBuildError, ensure_native
from .distributed import DistributedMachine, NodeContext
from .shared import SharedMachine

__all__ = [
    "FUSED",
    "NATIVE",
    "FusedStrictError",
    "KernelTier",
    "check_strict",
    "region_entry",
    "run_shared_fused",
    "run_distributed_fused",
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


def region_entry(rhs, guard):
    """The generated NumPy kernel over one lane block —
    ``entry(block, rows, out) -> stored``: the block's views of the lane
    rows, one fused expression over the open-grid ``_i``, one store
    through the block's write region."""

    def entry(blk, rows, out) -> int:
        sub = [blk.pos.take(row) for row in rows]
        mask = None if guard is None else guard(blk.grids, sub)
        return blk.write.store(out, rhs(blk.grids, sub), mask)

    return entry


def _lane_entry(kernel):
    """The one adaptor of the njit ABI: *kernel* (the compiled scalar
    loop of :mod:`repro.pipeline.native`) under the block convention.
    Its signature takes lanes, not regions — stacked ``int64[ndim, n]``
    index vectors, C-contiguous ``float64[nreads, n]`` rows, flat
    offsets into the raveled target buffer (from the target's own offset
    and strides in it) — which the block's regions materialize once and
    keep."""

    def entry(blk, rows, out) -> int:
        stacked = np.empty((len(rows), math.prod(blk.of)))
        for flat, row in zip(stacked, rows):
            np.copyto(flat.reshape(blk.of), row)
        # the core of a framed node memory is a view ``reshape(-1)``
        # would copy: store through the buffer it sits in
        base = _flat_base(out)
        offset = (out.__array_interface__["data"][0]
                  - base.__array_interface__["data"][0]) // out.itemsize
        scatter = offset + sum(v * (s // out.itemsize) for v, s in zip(
            blk.write.index_vectors(), out.strides))
        return kernel(np.stack(blk.loop.index_vectors()), stacked,
                      blk.pos.flat(blk.of), scatter, base.reshape(-1))

    return entry


def _flat_base(out: np.ndarray) -> np.ndarray:
    """The buffer a native store into *out* addresses: *out* itself, or
    the frame that *out* — the core of a framed node memory — views."""
    return out if out.flags.c_contiguous or out.base is None else out.base


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


class KernelTier:
    """The one in-process executor of compile-once kernels; this base
    class is the ``fused`` (NumPy) tier."""

    #: "this plan has no form on this tier" (reason in ``args[0]``)
    no_form = KernelBuildError
    _no_kernels = "no fused kernels on the plan"

    def bind(self, ir, flavor: str, strict: bool):
        """Gate on the static verifier, then resolve ``(kernels,
        entry)`` for one flavor or raise :attr:`no_form`.  Sequential
        clauses and replicated writes never get kernels built, so they
        end here too."""
        check_strict(ir, strict)
        k = ir.kernels
        if k is None:
            raise self.no_form(self._no_kernels)
        if getattr(k, flavor) is None:
            raise self.no_form(getattr(k, flavor + "_note")
                               or "no kernels for this flavor")
        return k, region_entry(k.rhs, k.guard)

    def check_target(self, k, target) -> None:
        """Refuse a global write *target* this tier cannot store into:
        the NumPy store goes through the write region on any dtype and
        layout."""

    @staticmethod
    def _shared_rows(k, nk, genv) -> list:
        """One node's read rows against global pre-state."""
        return [_lane_row(r, genv[r.name], nk.shape, r.name == k.write_name)
                for r in nk.reads]

    # -- shared memory ------------------------------------------------------

    def run_shared(
        self,
        ir,
        env: Dict[str, np.ndarray],
        machine: Optional[SharedMachine] = None,
        strict: bool = False,
    ) -> SharedMachine:
        """Execute a ``//`` clause with the precompiled shared kernels:
        gather every node's read rows against pre-state first, then one
        compute+commit per node in node order (all phases read
        pre-state, like the scalar template)."""
        k, entry = self.bind(ir, "shared", strict)
        if machine is None:
            machine = SharedMachine(ir.pmax, env)
        genv = machine.env
        out = genv[k.write_name]
        self.check_target(k, out)

        gathered = []
        for p, nk in enumerate(k.shared):
            machine.stats[p].iterations += nk.n
            gathered.append(self._shared_rows(k, nk, genv) if nk.n else None)

        for p, rows in enumerate(gathered):
            machine.stats[p].barriers += 1
            if rows is not None:
                machine.stats[p].local_updates += int(
                    entry(k.shared[p].blocks[0], rows, out))
        return machine

    def run_group(self, irs, machine: SharedMachine,
                  strict: bool = False) -> SharedMachine:
        """Execute a *fused clause group* (consecutive clauses whose
        barriers were proven removable) with the shared kernels.

        The walk is node-major — node p runs every clause of the group
        (one gather, one compute+commit per clause) before node p+1
        starts — which matches the legacy scalar group walk order
        exactly.  The fusion certificate (no cross-processor
        flow/anti/output dependence, no intra-clause overlap) is what
        makes this order and the all-nodes-phase order produce identical
        values; bit-identity with the scalar walk is asserted by the
        equivalence tests.

        Every clause is bound before the first commit, so a group with
        no form on this tier raises :attr:`no_form` with memory
        untouched.  One barrier is charged per node for the whole group,
        not per clause."""
        genv = machine.env
        bound = []
        for ir in irs:
            k, entry = self.bind(ir, "shared", strict)
            self.check_target(k, genv[k.write_name])
            bound.append((k, entry))
        for p in range(machine.pmax):
            for k, entry in bound:
                if p >= len(k.shared):
                    continue
                nk = k.shared[p]
                machine.stats[p].iterations += nk.n
                if nk.n:
                    machine.stats[p].local_updates += int(entry(
                        nk.blocks[0], self._shared_rows(k, nk, genv),
                        genv[k.write_name]))
        for p in range(machine.pmax):
            machine.stats[p].barriers += 1
        return machine

    # -- distributed memory (overlap schedule) -------------------------------

    @staticmethod
    def node_program(k, entry, ctx: NodeContext):
        """Node program driven entirely by precomputed regions: memory
        regions feed the sends, non-blocking receives fill lane regions
        of the read rows, and the interior block commits while messages
        are in flight."""
        nk = k.dist[ctx.p]

        def program():
            # what the regions address: each array's core, or its ghost
            # frame — resolved first, since a wider request moves the core
            frames = {name: ctx.mem.frame(name, m)
                      for name, m in nk.margins.items()}
            bufs = {**ctx.mem.arrays, **frames}

            # ---- send phase: one memory region, one message per peer -----
            for s in nk.sends:
                ctx.stats.iterations += s.count
                buf = bufs[s.name]
                for q, region in s.peers:
                    # row-major over the region = lexicographic lane
                    # order; always a fresh pre-clause copy
                    ctx.send(q, ("fus", s.pos), region.full(buf).flatten())

            # ---- update phase ---------------------------------------------
            ctx.stats.iterations += nk.n
            if nk.n:
                rows = []
                pending = []  # (handle, buffer, region of it to fill)
                for r in nk.reads:
                    row = _lane_row(r, bufs[r.name], nk.shape,
                                    r.name == k.write_name)
                    rows.append(row)
                    # a ghost read's row is a view of the frame: its
                    # strips land in the ghost cells beside the tile
                    into = row if r.lanes is not None else bufs[r.name]
                    for src, fill in r.sources:
                        handle = yield ctx.irecv(src, ("fus", r.pos))
                        pending.append((handle, into, fill))

                out = bufs[k.write_name]

                def commit(blocks):
                    ctx.charge_elements(sum(b.pos.size for b in blocks))
                    for blk in blocks:
                        ctx.stats.local_updates += int(entry(blk, rows, out))

                # interior kernel while messages are in flight
                commit([nk.interior] if nk.interior is not None else [])

                while pending:
                    done = yield ctx.probe([h for h, _, _ in pending])
                    i = next(j for j, (h, _, _) in enumerate(pending)
                             if h is done)
                    _, into, fill = pending.pop(i)
                    fill.put(into, np.asarray(
                        ctx.note_received(done.payload),
                        dtype=np.float64).reshape(fill.shape))

                commit(nk.blocks)

            yield ctx.barrier()

        return program()

    def run_distributed(
        self,
        ir,
        env: Dict[str, np.ndarray],
        machine: Optional[DistributedMachine] = None,
        model=None,
        strict: bool = False,
    ) -> DistributedMachine:
        """Place *env* (unless a pre-placed *machine* is given), run the
        node programs, return the machine.  A node's write target is
        float64 and contiguous as placed (``DistributedMachine.place``),
        or the core of a ghost frame — a view of such a buffer; the tier
        checks the buffer it will store through."""
        k, entry = self.bind(ir, "dist", strict)
        if machine is None:
            machine = DistributedMachine(ir.pmax, model=model)
            decs = {ir.write.name: ir.write.dec}
            for acc in ir.reads:
                decs.setdefault(acc.name, acc.dec)
            for name, dec in decs.items():
                machine.place(name, env[name], dec)
        for mem in machine.memories:
            self.check_target(k, _flat_base(mem[k.write_name]))
        machine.run(lambda ctx: self.node_program(k, entry, ctx))
        return machine


class _NativeTier(KernelTier):
    """The ``native`` tier: the same schedule, committing through the
    njit scalar loop.  Plans with no native form — numba absent,
    unrenderable expressions, write buffers without a contiguous float64
    flat view — raise :class:`~repro.pipeline.native.NativeBuildError`."""

    no_form = NativeBuildError
    _no_kernels = "plan carries no fused kernels (lower-kernels fallback)"

    def bind(self, ir, flavor: str, strict: bool):
        k, _ = super().bind(ir, flavor, strict)
        check_kernels_strict(ir, strict)
        return k, _lane_entry(ensure_native(k, ir).entry)

    def check_target(self, k, target) -> None:
        if not target.flags.c_contiguous:
            raise NativeBuildError(
                f"write target {k.write_name!r} is not C-contiguous; the "
                "native scatter needs a flat view")
        if target.dtype != np.float64:
            raise NativeBuildError(
                f"write target {k.write_name!r} is {target.dtype}; the njit "
                "signature stores float64")


FUSED = KernelTier()
NATIVE = _NativeTier()

run_shared_fused = FUSED.run_shared
run_distributed_fused = FUSED.run_distributed
