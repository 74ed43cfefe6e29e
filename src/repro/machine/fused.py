"""In-process kernel executors (``backend="fused"`` and ``"native"``).

Where the vector backend interprets each run — re-deriving membership
vectors, applying placement arithmetic and tree-walking the clause body
— these executors run the **compile-once** kernels built by the
`lower-kernels` pass (:mod:`repro.pipeline.kernels`): every index and
gather/scatter array is precomputed, local memory is addressed through
flat ndarray views with static index arrays, and the clause body is one
generated kernel.

There is one executor, :class:`KernelTier`, and two instances of it.
Both run the same schedule over the same stacked ``float64[nreads, n]``
read rows and differ only in the *entry* that computes and commits one
lane set, ``entry(idx, rows, lanes, scatter, out) -> stored``:

``FUSED``
    the generated NumPy expression (:func:`numpy_entry`) — one fused
    ufunc line, a guard mask, one fancy-indexed store;
``NATIVE``
    the njit-compiled (or, under ``REPRO_NATIVE_INTERP``, exec-compiled)
    scalar loop of :mod:`repro.pipeline.native` — no NumPy temporaries,
    guard and scatter folded into the loop.

The distributed program keeps the overlap schedule: post sends, post
non-blocking receives, commit the *interior* lane set while messages
are in flight, drain with Probe, then commit the *boundary* lane set.
A plan compiled without an interior split simply has an empty interior
and degrades to drain-then-compute — still bit-identical.  This is the
schedule's statement over node-local raveled offsets and the simulated
mailbox; its one sibling, over global keys and real transports, is
:func:`repro.runtime.worker.run_sequence` (DESIGN.md says why the two
stay apart).

Statistics (iterations, messages, elements moved, local updates) match
the vector backend counter-for-counter, and results are bit-identical
across tiers (``TestAllBackendsAgree``): read rows are materialized
float64 *before* any commit, the scalar loop evaluates the identical
IEEE-754 expression tree per lane, and duplicate store keys resolve
last-lane-wins exactly like the fancy-indexed NumPy store.

A plan with no form on a tier raises that tier's ``no_form`` exception
(reason in ``args[0]``), which the dispatcher catches to fall to the
next tier with a trace note.  ``strict=True`` composes the static
verifier with execution: a clause whose ``verify-plan`` report carries
any RACE* or COMM* finding (native: also any KRN* error) is refused with
the diagnostic code in the error message.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..analysis.kernel_sanitizer import check_kernels_strict
from ..pipeline.kernels import KernelBuildError
from ..pipeline.native import NativeBuildError, ensure_native
from .distributed import DistributedMachine, NodeContext
from .shared import SharedMachine
from .vectorize import _as_value_vec, _run_nodes

__all__ = [
    "FUSED",
    "NATIVE",
    "FusedStrictError",
    "KernelTier",
    "check_strict",
    "numpy_entry",
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


def numpy_entry(rhs, guard):
    """The generated NumPy kernel under the njit entry's calling
    convention — ``entry(idx, rows, lanes, scatter, out) -> stored`` —
    so every executor (these, the mp workers, the MPI ranks) commits a
    lane set through one call whatever the tier.

    ``lanes=None`` means every lane (no gather copy).  *scatter* indexes
    *out* directly: a flat key vector into a raveled buffer, or a tuple
    of per-dim key vectors into an array of any layout."""

    def entry(idx, rows, lanes, scatter, out) -> int:
        if lanes is None:
            m, sub = rows.shape[1], rows
        else:
            m, sub = int(lanes.size), [row[lanes] for row in rows]
        values = _as_value_vec(rhs(idx, sub), m)
        if guard is not None:
            mask = np.broadcast_to(
                np.asarray(guard(idx, sub), dtype=bool), (m,))
            scatter = (tuple(a[mask] for a in scatter)
                       if isinstance(scatter, tuple) else scatter[mask])
            values = values[mask]
        out[scatter] = values
        return int(values.size)

    return entry


def _gather_shared(k, nk, genv) -> np.ndarray:
    """One node's stacked read rows, gathered from global pre-state."""
    rows = np.empty((k.nreads, nk.n), dtype=np.float64)
    for pos, (name, key) in enumerate(nk.read_keys):
        rows[pos] = genv[name][key]
    return rows


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
        return k, numpy_entry(k.rhs, k.guard)

    def shared_stores(self, k, target):
        """``(out, [(lanes, scatter) per node])`` for committing into
        the global *target*: the NumPy store takes the per-dim key
        vectors as they are, on any dtype and layout."""
        return target, [
            (None, nk.write_key_vecs if len(nk.write_key_vecs) > 1
             else nk.write_key_vecs[0])
            for nk in k.shared]

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
        compute+commit per node in node order — semantics identical to
        the vector executor."""
        k, entry = self.bind(ir, "shared", strict)
        if machine is None:
            machine = SharedMachine(ir.pmax, env)
        genv = machine.env
        out, stores = self.shared_stores(k, genv[k.write_name])

        gathered = []
        for p, nk in enumerate(k.shared):
            machine.stats[p].iterations += nk.n
            gathered.append(_gather_shared(k, nk, genv) if nk.n else None)

        for p, rows in enumerate(gathered):
            machine.stats[p].barriers += 1
            if rows is not None:
                lanes, scatter = stores[p]
                machine.stats[p].local_updates += int(
                    entry(k.shared[p].idx, rows, lanes, scatter, out))
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
            bound.append((k, entry)
                         + self.shared_stores(k, genv[k.write_name]))
        for p in range(machine.pmax):
            for k, entry, out, stores in bound:
                if p >= len(k.shared):
                    continue
                nk = k.shared[p]
                machine.stats[p].iterations += nk.n
                if nk.n == 0:
                    continue
                lanes, scatter = stores[p]
                machine.stats[p].local_updates += int(entry(
                    nk.idx, _gather_shared(k, nk, genv), lanes, scatter,
                    out))
        for p in range(machine.pmax):
            machine.stats[p].barriers += 1
        return machine

    # -- distributed memory (overlap schedule) -------------------------------

    @staticmethod
    def node_program(k, entry, ctx: NodeContext):
        """Node program driven entirely by precomputed index arrays:
        flat gathers feed the sends, non-blocking receives fill
        precomputed lane positions, and the interior lane set commits
        while messages are in flight."""
        nk = k.dist[ctx.p]

        def program():
            # ---- send phase: one flat gather + one message per peer ------
            for s in nk.sends:
                ctx.stats.iterations += s.count
                buf = ctx.mem[s.name].ravel()
                for q, gidx in s.peers:
                    ctx.send(q, ("fus", s.pos), buf[gidx])

            # ---- update phase ---------------------------------------------
            n = nk.n
            ctx.stats.iterations += n
            if n:
                rows = np.empty((k.nreads, n), dtype=np.float64)
                pending = []  # (handle, row view, lane positions to fill)
                for r in nk.reads:
                    if r.replicated:
                        rows[r.pos] = ctx.mem[r.name].ravel()[r.rep_gather]
                        continue
                    row = rows[r.pos]
                    if r.local_pos.size:
                        row[r.local_pos] = \
                            ctx.mem[r.name].ravel()[r.local_gather]
                    for src, fill in r.sources:
                        handle = yield ctx.irecv(src, ("fus", r.pos))
                        pending.append((handle, row, fill))

                wbuf = ctx.mem[k.write_name].ravel()

                def commit(idx, lanes, scatter):
                    if lanes.size:
                        ctx.stats.local_updates += int(
                            entry(idx, rows, lanes, scatter, wbuf))

                # interior kernel while messages are in flight
                ctx.charge_elements(int(nk.interior.size))
                commit(nk.idx_interior, nk.interior, nk.scatter_interior)

                while pending:
                    done = yield ctx.probe([h for h, _, _ in pending])
                    i = next(j for j, (h, _, _) in enumerate(pending)
                             if h is done)
                    _, row, fill = pending.pop(i)
                    row[fill] = np.asarray(
                        ctx.note_received(done.payload), dtype=np.float64)

                ctx.charge_elements(int(nk.boundary.size))
                commit(nk.idx_boundary, nk.boundary, nk.scatter_boundary)

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
        node programs, return the machine.  Node memories are always
        contiguous float64 (``DistributedMachine.place``), so the flat
        local scatters need no dtype or layout guard here."""
        k, entry = self.bind(ir, "dist", strict)
        return _run_nodes(ir, env, machine, model,
                          lambda ctx: self.node_program(k, entry, ctx))


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
        return k, ensure_native(k, ir).entry

    def shared_stores(self, k, target):
        if not target.flags.c_contiguous:
            raise NativeBuildError(
                f"write target {k.write_name!r} is not C-contiguous; the "
                "native scatter needs a flat view")
        if target.dtype != np.float64:
            raise NativeBuildError(
                f"write target {k.write_name!r} is {target.dtype}; the njit "
                "signature stores float64")
        return target.reshape(-1), [
            (node.lanes, node.scatter_for(target.shape))
            for node in k.native.shared]


FUSED = KernelTier()
NATIVE = _NativeTier()

run_shared_fused = FUSED.run_shared
run_distributed_fused = FUSED.run_distributed
