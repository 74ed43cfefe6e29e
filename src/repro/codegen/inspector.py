"""Inspector/executor generation for indirect accesses (paper §3).

Section 3 concedes that complete compile-time reduction "is not always
possible due to the fact that the functions involved either depend on
values of the array elements — which are generally only known at
run-time".  The contemporary answer — due to Koelbel/Mehrotra's Kali
(cited by the paper) and Saltz's PARTI — is the *inspector/executor*
split, which we implement for clauses with indirection:

    ``∆(i) // A[i] := Expr(B[T[i]], ...)``

* **inspector** (runs once, O(domain)): with the index table ``T`` known
  at run time, compute each node's gather lists — which locally-owned
  ``B`` slots every other node will need, and, per owned iteration,
  whether its operand is local or arrives in a neighbour's packed
  message (and at which offset);
* **executor** (runs per time step, reusable): one *coalesced* message
  per communicating pair, then purely local evaluation — no tests, no
  per-element envelopes.

The index table ``T`` is replicated (the classic setting: the
communication structure, e.g. a mesh, is known to every node; a
distributed table would need a second inspector round).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from ..core.clause import Clause, Ordering
from ..core.expr import Ref, eval_fetched
from ..decomp.base import Decomposition
from ..machine.distributed import DistributedMachine, NodeContext
from ..sets.table1 import optimize_access

__all__ = ["IndirectPlan", "CommSchedule", "compile_indirect",
           "build_schedule", "run_executor"]


@dataclass
class IndirectPlan:
    """Compiled shape of an indirect clause."""

    clause: Clause
    write_dec: Decomposition
    read_dec: Decomposition
    read_ref: Ref
    table: np.ndarray
    imin: int
    imax: int
    pmax: int


def compile_indirect(
    clause: Clause, decomps: Dict[str, Decomposition]
) -> IndirectPlan:
    """Validate ``A[i] := Expr(B[T[i]])``-shaped clauses.

    The indirect read is recognized by its
    :class:`~repro.core.ifunc.IndirectF` access function, whose run-time
    table drives the inspector.  The table is conceptually replicated —
    every node knows the communication structure, the classic
    inspector/executor setting.
    """
    from ..core.ifunc import AffineF, IndirectF

    if clause.ordering is not Ordering.PAR:
        raise ValueError("inspector/executor applies to // clauses")
    if clause.domain.dim != 1:
        raise ValueError("indirect generation is 1-D")
    wf = clause.lhs.scalar_func()
    if not (isinstance(wf, AffineF) and wf.a == 1 and wf.c == 0):
        raise ValueError("indirect template requires identity writes A[i]")
    reads = list(clause.reads())
    indirect = [r for r in reads if isinstance(r.scalar_func(), IndirectF)]
    if len(indirect) != 1:
        raise ValueError(
            f"clause must contain exactly one IndirectF read "
            f"(found {len(indirect)})"
        )
    if len(reads) != 1:
        raise ValueError(
            "the indirect template supports a single read operand"
        )
    ref = indirect[0]
    imin, imax = clause.domain.bounds.scalar()
    table = ref.scalar_func().table
    if imax >= len(table):
        raise ValueError(
            f"index table of length {len(table)} does not cover the "
            f"domain {imin}:{imax}"
        )
    return IndirectPlan(
        clause=clause,
        write_dec=decomps[clause.lhs.name],
        read_dec=decomps[ref.name],
        read_ref=ref,
        table=table,
        imin=imin,
        imax=imax,
        pmax=decomps[clause.lhs.name].pmax,
    )


@dataclass
class CommSchedule:
    """The inspector's product: a reusable communication schedule.

    For every node ``p``:

    * ``send[p][q]``   — local ``B`` slots to pack into the message p→q;
    * ``recv_from[p]`` — ordered list of source nodes;
    * ``ops[p]``       — per owned iteration ``i``: the write slot and
      either ``("local", slot)`` or ``("msg", src, offset)``.
    """

    plan: IndirectPlan
    send: List[Dict[int, List[int]]] = field(default_factory=list)
    recv_from: List[List[int]] = field(default_factory=list)
    ops: List[List[Tuple[int, int, Tuple]]] = field(default_factory=list)

    def total_elements(self) -> int:
        return sum(len(v) for node in self.send for v in node.values())

    def message_count(self) -> int:
        return sum(len(node) for node in self.send)


def build_schedule(
    plan: IndirectPlan, table: Optional[np.ndarray] = None
) -> CommSchedule:
    """THE INSPECTOR: O(domain) once the index table is known.

    Pass a new *table* to re-inspect after the indirection pattern
    changed (e.g. mesh refinement); by default the plan's own table is
    used.
    """
    if table is None:
        table = plan.table
    dA, dB = plan.write_dec, plan.read_dec
    sched = CommSchedule(plan)
    sched.send = [dict() for _ in range(plan.pmax)]
    sched.recv_from = [[] for _ in range(plan.pmax)]
    sched.ops = [[] for _ in range(plan.pmax)]

    # message offsets are assigned in iteration order per (src, dst) pair
    offsets: Dict[Tuple[int, int], int] = {}
    modify = optimize_access(dA, plan.clause.lhs.scalar_func(),
                             plan.imin, plan.imax)
    for p in range(plan.pmax):
        for i in modify.indices(p):
            j = int(table[i])
            q, slot = dB.place(j)
            w_slot = dA.local(i)
            if q == p:
                sched.ops[p].append((i, w_slot, ("local", slot)))
            else:
                key = (q, p)
                off = offsets.get(key, 0)
                offsets[key] = off + 1
                sched.send[q].setdefault(p, []).append(slot)
                sched.ops[p].append((i, w_slot, ("msg", q, off)))
    for (src, dst), _n in sorted(offsets.items()):
        sched.recv_from[dst].append(src)
    return sched


def _executor_program(sched: CommSchedule, ctx: NodeContext) -> Generator:
    def program() -> Generator:
        p = ctx.p
        plan = sched.plan
        clause = plan.clause
        b_loc = ctx.mem[plan.read_ref.name]

        # pack + send one message per destination
        for q, slots in sorted(sched.send[p].items()):
            ctx.send(q, ("x", plan.read_ref.name),
                     np.array([b_loc[s] for s in slots]))

        # receive per source
        inbox: Dict[int, np.ndarray] = {}
        for src in sorted(sched.recv_from[p]):
            payload = yield ctx.recv(src, ("x", plan.read_ref.name))
            inbox[src] = ctx.note_received(payload)

        # purely local evaluation (buffered writes, // premise)
        pending = []
        for i, w_slot, source in sched.ops[p]:
            if source[0] == "local":
                value = b_loc[source[1]]
            else:
                _tag, src, off = source
                value = inbox[src][off]
            by_ref = {id(plan.read_ref): value}
            idx = (i,)
            if clause.guard is not None and not eval_fetched(
                clause.guard, idx, by_ref
            ):
                continue
            pending.append((w_slot, eval_fetched(clause.rhs, idx, by_ref)))
        for slot, value in pending:
            ctx.update(plan.clause.lhs.name, slot, value)
        yield ctx.barrier()

    return program()


def run_executor(
    sched: CommSchedule, machine: DistributedMachine
) -> DistributedMachine:
    """THE EXECUTOR: apply the clause once using the prebuilt schedule.

    Reusable: call repeatedly as the *values* of the arrays change; only
    a changed index table requires re-inspection.
    """
    machine.run(lambda ctx: _executor_program(sched, ctx))
    return machine
