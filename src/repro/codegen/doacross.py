"""Distributed DOACROSS generation (paper §2.6 closing remark).

The paper notes that non-``//`` orderings "translate to DOACROSS-style
synchronization patterns" on distributed machines but gives no template.
This extension implements the classic case: a sequentially-ordered
first-order recurrence

    ``∆(i ∈ (imin:imax)) • A[i] := Expr(A[i - s], B[h(i)], ...)``

with dependence distance ``s >= 1``.  The data dependence itself is the
synchronization: node ``p`` may execute iteration ``i`` as soon as the
value of ``A[i - s]`` exists, so iterations pipeline across processors
with lag ``s`` — no global token, no barrier per iteration.

Protocol per node:

* *prefetch phase* — pre-state values ``A[j]`` with
  ``j in [imin - s, imin - 1]`` (read before any write) are sent by
  their owners to the consumers of ``j + s``;
* *read send phase* — non-recurrence reads (``B[h(i)]``) are shipped
  exactly as in the ``//`` template (they are pre-state by definition:
  ``B`` is not written);
* *main loop* — for each owned ``i`` in increasing order: obtain
  ``A[i - s]`` (locally if this node executed ``i - s``, otherwise by a
  blocking receive from its owner), evaluate, store, and *forward* the
  freshly-settled ``A[i]`` to the owner of ``i + s`` when that is a
  different node.  The forwarded value is the post-iteration local value
  whether or not a guard suppressed the update, which is exactly the
  value the sequential order exposes.

Guards may not reference the written array (that would need general
remote-read servicing); all other reads are unrestricted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

import numpy as np

from ..core.clause import Clause, Ordering
from ..core.expr import eval_fetched
from ..core.ifunc import AffineF
from ..decomp.base import Decomposition
from ..machine.distributed import DistributedMachine, NodeContext
from ..pipeline.ir import AccessIR, PlanIR
from ..sets.membership import Work
from .dist_tmpl import _read_value
from .plan import compile_clause

__all__ = ["DoacrossPlan", "compile_doacross", "run_doacross",
           "make_doacross_program"]


@dataclass
class DoacrossPlan:
    """A validated DOACROSS pipeline: the underlying SPMD plan plus the
    recurrence structure (dependence distance per recurrence read)."""

    base: PlanIR
    recurrence_reads: List[AccessIR]
    other_reads: List[AccessIR]
    distances: Dict[int, int]  # read.pos -> s

    @property
    def max_distance(self) -> int:
        return max(self.distances.values())


def compile_doacross(
    clause: Clause, decomps: Dict[str, Decomposition]
) -> DoacrossPlan:
    """Validate + compile a ``•`` recurrence clause for the pipeline."""
    if clause.ordering is not Ordering.SEQ:
        raise ValueError("DOACROSS generation applies to •-ordered clauses")
    base = compile_clause(clause, decomps)
    wf = base.write.funcs[0]
    if not (isinstance(wf, AffineF) and wf.a == 1 and wf.c == 0):
        raise ValueError(
            "DOACROSS template requires the identity write access A[i]"
        )
    recurrence, others = [], []
    distances: Dict[int, int] = {}
    for read in base.reads:
        if read.name == base.write_name:
            g = read.funcs[0]
            if not (isinstance(g, AffineF) and g.a == 1 and g.c <= -1):
                raise ValueError(
                    "reads of the written array must be backward shifts "
                    f"A[i - s] with s >= 1; got {g.name}"
                )
            distances[read.pos] = -g.c
            recurrence.append(read)
        else:
            others.append(read)
    if not recurrence:
        raise ValueError(
            "no recurrence read: the clause is //-independent, use the "
            "ordinary distributed template"
        )
    if clause.guard is not None:
        for r in clause.guard.refs():
            if r.name == base.write_name:
                raise ValueError(
                    "guards may not reference the written array in the "
                    "DOACROSS template"
                )
    if base.write.replicated:
        raise ValueError("DOACROSS write decomposition cannot be replicated")
    from ..analysis import verify_ir

    report = (base.diagnostics if base.diagnostics is not None
              else verify_ir(base))
    bad = sorted({d.code for d in report.errors()
                  if d.code in ("BND001", "BND002", "COMM001", "COMM003")})
    if bad:
        raise ValueError(
            "DOACROSS clause fails static verification "
            f"({', '.join(bad)}); run `repro check` for details"
        )
    return DoacrossPlan(base, recurrence, others, distances)


def make_doacross_program(
    plan: DoacrossPlan, ctx: NodeContext, paced: bool = False
) -> Generator:
    """Node program for the DOACROSS pipeline.

    With ``paced=True`` the main loop yields to the scheduler after every
    iteration, making the scheduler's logical rounds a per-iteration
    clock — slower to simulate, but the trace then shows the true
    pipeline structure (used by the overlap analyses).
    """

    def program() -> Generator:
        from ..machine.scheduler import Yield
        p = ctx.p
        base = plan.base
        clause = base.clause
        d = base.write.dec
        imin, imax = base.loop_bounds[0]
        work = Work()

        # ---- prefetch phase: pre-state A[j], j in [imin - s, imin - 1] --
        for read in plan.recurrence_reads:
            s = plan.distances[read.pos]
            for j in range(imin - s, imin):
                if j < 0 or d.proc(j) != p:
                    continue
                i = j + s
                if imin <= i <= imax:
                    q = d.proc(i)
                    if q != p:
                        ctx.send(q, ("pre", read.pos, j),
                                 ctx.mem[base.write_name][d.local(j)])

        # ---- send phase for non-recurrence reads (pre-state) ------------
        for read in plan.other_reads:
            if read.replicated:
                continue
            for idx in read.membership(p, base.loop_bounds, work):
                ctx.stats.iterations += 1
                q = d.proc(idx[0])  # write func is identity
                if q != p:
                    ctx.send(q, (read.pos, idx), _read_value(ctx, read, idx))

        # ---- main pipeline loop ------------------------------------------
        a_loc = ctx.mem[base.write_name]
        for idx in base.modify_indices(p, work):
            i = idx[0]
            ctx.stats.iterations += 1
            by_ref: Dict[int, float] = {}
            # recurrence operands
            for read in plan.recurrence_reads:
                s = plan.distances[read.pos]
                j = i - s
                if d.proc(j) == p:
                    by_ref[id(read.ref)] = a_loc[d.local(j)]
                elif j < imin:
                    payload = yield ctx.recv(d.proc(j), ("pre", read.pos, j))
                    by_ref[id(read.ref)] = ctx.note_received(payload)
                else:
                    payload = yield ctx.recv(d.proc(j), ("dep", read.pos, j))
                    by_ref[id(read.ref)] = ctx.note_received(payload)
            # ordinary operands
            for read in plan.other_reads:
                if read.replicated or read.proc_of(idx) == p:
                    by_ref[id(read.ref)] = _read_value(ctx, read, idx)
                else:
                    payload = yield ctx.recv(read.proc_of(idx),
                                             (read.pos, idx))
                    by_ref[id(read.ref)] = ctx.note_received(payload)
            fire = True
            if clause.guard is not None:
                fire = bool(eval_fetched(clause.guard, idx, by_ref))
            if fire:
                ctx.update(base.write_name, d.local(i),
                           eval_fetched(clause.rhs, idx, by_ref))
            # forward the settled value to each consumer of i (+s lag)
            for read in plan.recurrence_reads:
                s = plan.distances[read.pos]
                succ = i + s
                if succ <= imax and d.proc(succ) != p:
                    ctx.send(d.proc(succ), ("dep", read.pos, i),
                             a_loc[d.local(i)])
            if paced:
                yield Yield()

        ctx.stats.membership_tests += work.tests
        yield ctx.barrier()

    return program()


def run_doacross(
    plan: DoacrossPlan,
    env: Dict[str, np.ndarray],
    machine: Optional[DistributedMachine] = None,
) -> DistributedMachine:
    """Place *env*, run the pipeline, return the machine."""
    base = plan.base
    if machine is None:
        machine = DistributedMachine(base.pmax)
        all_decomps = {acc.name: acc.dec for acc in base.accesses()}
        for name, arr in env.items():
            if name in all_decomps:
                machine.place(name, arr, all_decomps[name])
    machine.run(lambda ctx: make_doacross_program(plan, ctx))
    return machine
