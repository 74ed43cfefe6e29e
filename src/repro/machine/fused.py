"""The in-process kernel executor (``backend="fused"``).

Where the scalar templates walk ``Modify_p`` / ``Reside_p`` element by
element on every run, this executor runs the **compile-once** kernels
of the `lower-kernels` pass (:mod:`repro.pipeline.kernels`; the flavor a
run needs is built, and bounds-audited, on its first use): every
membership set and address is a precomputed
:class:`~repro.pipeline.region.Region` — slices of node memory wherever
Table I yields a progression, vectors only for the irregular remainder —
and the clause body is one generated kernel.

There is one executor, :class:`KernelTier`, and one instance of it,
``FUSED``.  Its *entry* computes and commits one lane block,
``entry(block, rows, out) -> stored``: the generated NumPy expression
(:func:`region_entry`) over views of the rows, a guard mask, one store
through the block's write region.

The distributed program keeps the overlap schedule: post sends, post
non-blocking receives, commit the *interior* block while messages are
in flight, drain with Probe, then commit the *boundary* strips.  A plan
compiled without an interior split simply has no interior and degrades
to drain-then-compute — still bit-identical.  This is the schedule's
statement as a generator over the simulated mailbox; its one sibling,
blocking over real transports, is
:func:`repro.runtime.worker.run_sequence` (DESIGN.md says why the two
stay apart).  Both run the same node kernels through the same rows
(:func:`_lane_row`) and entry.

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

from typing import Dict, Optional

import numpy as np

from ..pipeline.kernels import KernelBuildError, flavor_nodes
from .distributed import DistributedMachine, NodeContext
from .shared import SharedMachine

__all__ = [
    "FUSED",
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
        k, nodes, entry = self.bind(ir, "shared", strict)
        if machine is None:
            machine = SharedMachine(ir.pmax, env)
        genv = machine.env
        out = genv[k.write_name]

        gathered = []
        for p, nk in enumerate(nodes):
            machine.stats[p].iterations += nk.n
            gathered.append(self._shared_rows(k, nk, genv) if nk.n else None)

        for p, rows in enumerate(gathered):
            machine.stats[p].barriers += 1
            if rows is not None:
                machine.stats[p].local_updates += int(
                    entry(nodes[p].blocks[0], rows, out))
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
        bound = [self.bind(ir, "shared", strict) for ir in irs]
        for p in range(machine.pmax):
            for k, nodes, entry in bound:
                if p >= len(nodes):
                    continue
                nk = nodes[p]
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
    def node_program(k, nk, entry, ctx: NodeContext):
        """Node *nk*'s program, driven entirely by precomputed regions:
        memory regions feed the sends, non-blocking receives fill lane
        regions of the read rows, and the interior block commits while
        messages are in flight."""

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
        node programs, return the machine."""
        k, nodes, entry = self.bind(ir, "dist", strict)
        if machine is None:
            machine = DistributedMachine(ir.pmax, model=model)
            decs = {ir.write.name: ir.write.dec}
            for acc in ir.reads:
                decs.setdefault(acc.name, acc.dec)
            for name, dec in decs.items():
                machine.place(name, env[name], dec)
        machine.run(lambda ctx: self.node_program(k, nodes[ctx.p], entry,
                                                  ctx))
        return machine


FUSED = KernelTier()

run_shared_fused = FUSED.run_shared
run_distributed_fused = FUSED.run_distributed
