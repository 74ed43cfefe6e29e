"""Distributed-memory SPMD template (paper Section 2.10).

The paper's trivial template loops every node over ``All_p`` with three
membership cases::

    p := my_node;
    forall i in All_p do
        if i in Reside_p \\ Modify_p then send(proc_A(f(i)), B_L[local_B(g(i))]); fi
        if i in Modify_p \\ Reside_p then tmp := receive(...); A_L[..] := Expr(tmp); fi
        if i in Modify_p ∩ Reside_p then A_L[..] := Expr(B_L[local_B(g(i))]); fi
    od;

The optimized instantiation here drives the same communication pattern
from the closed-form ``Modify``/``Reside`` enumerators of Section 3:

* **send phase**  — for each read access ``r`` and each ``i`` in
  ``Reside_p(r)``: the target ``q = proc_A(f(i))`` is *computed* (not
  searched); if ``q ≠ p`` the element is sent, tagged ``(r.pos, i)``
  (``i`` the loop index tuple).
* **update phase** — for each ``i`` in ``Modify_p``: every read value is
  taken locally when ``proc_B(g(i)) = p`` (or the read is replicated),
  otherwise received (blocking) from its owner; then the guard and
  expression are evaluated and ``A_L[local_A(f(i))]`` updated.

Non-blocking sends + per-tag FIFO matching make the phase split
deadlock-free: no receive can be issued before its matching send exists
in program order on some node that is never itself blocked on ``p``.

Guards (data-dependent predicates) are evaluated by the *owner* of the
write; senders ship their elements unconditionally, so sends stay matched
— the receiver simply discards values whose guard fails.

The template is rank-generic: over a product decomposition the write
owner is a grid point and ``Modify_p`` and every ``Reside_p`` factorize
into Cartesian products of 1-D Table I memberships
(:meth:`~repro.pipeline.ir.AccessIR.membership`).
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from ..backends import dispatch
from ..core.clause import Ordering
from ..core.expr import eval_fetched
from ..machine.distributed import DistributedMachine, NodeContext
from ..pipeline.ir import AccessIR, PlanIR
from ..sets.membership import Work

__all__ = ["make_node_program", "run_distributed"]

Index = Tuple[int, ...]


def _read_value(ctx: NodeContext, read: AccessIR, idx: Index):
    """Local fetch of *read* at loop index *idx* (must be resident)."""
    return ctx.mem[read.name][read.local_of(idx)]


def make_node_program(plan: PlanIR, ctx: NodeContext) -> Generator:
    """Node program generator for processor ``ctx.p`` — the optimized
    instantiation of the §2.10 template."""

    def program() -> Generator:
        p = ctx.p
        clause = plan.clause
        bounds = plan.loop_bounds
        work = Work()
        # each read's owner function, resolved once (a replicated read is
        # resident on every node)
        owners = [(lambda idx: p) if read.replicated else read.proc_of
                  for read in plan.reads]

        # ---- send phase -------------------------------------------------
        for read in plan.reads:
            if read.replicated:
                continue  # replicated reads never communicate
            for idx in read.membership(p, bounds, work):
                ctx.stats.iterations += 1
                for q in plan.writers_of(idx):
                    if q == p:
                        continue
                    ctx.send(q, (read.pos, idx), _read_value(ctx, read, idx))

        # ---- update phase ------------------------------------------------
        # Writes are buffered and committed after the loop: a //-clause
        # iteration must never observe another iteration's write (the
        # paper's independence premise); sends above already shipped
        # pre-state values because they precede all updates in program
        # order on every node.
        pending: List[Tuple[Index, float]] = []
        for idx in plan.modify_indices(p, work):
            ctx.stats.iterations += 1
            by_ref: Dict[int, float] = {}
            for read, owner in zip(plan.reads, owners):
                src = owner(idx)
                if src == p:
                    by_ref[id(read.ref)] = _read_value(ctx, read, idx)
                else:
                    payload = yield ctx.recv(src, (read.pos, idx))
                    by_ref[id(read.ref)] = ctx.note_received(payload)
            if clause.guard is not None and not eval_fetched(
                clause.guard, idx, by_ref
            ):
                continue
            pending.append((plan.write.local_of(idx),
                            eval_fetched(clause.rhs, idx, by_ref)))
        for slot, value in pending:
            ctx.update(plan.write_name, slot, value)

        ctx.stats.membership_tests += work.tests
        yield ctx.barrier()

    return program()


def run_distributed(
    plan: PlanIR,
    env: Dict[str, np.ndarray],
    machine: Optional[DistributedMachine] = None,
    backend: str = "scalar",
    model=None,
    strict: bool = False,
    processes: Optional[int] = None,
    timeout: Optional[float] = None,
) -> DistributedMachine:
    """Place *env* on a distributed machine, run the clause, return the
    machine (use ``machine.collect(name)`` for the post-state).

    When *machine* is given it must already hold the placed arrays.
    *backend* names a tier of :data:`repro.backends.TIERS`; the table in
    ``docs/execution.md`` ("Backend tiers") says what each needs, what it
    falls to and the trace note each hop leaves.  Replicated writes (a
    per-copy broadcast) keep this scalar template under every in-process
    backend.  *model* is an optional
    :class:`~repro.machine.channels.LatencyModel` attached to a newly
    created machine (virtual-time accounting only); *strict* makes the
    kernel and real-process tiers refuse clauses the static verifier
    flagged; *processes*/*timeout* apply to ``mp``/``mpi`` (``mpi``
    attaches ranks through a Cartesian grid matching the decomposition).
    A simulator deadlock leaves citing the static COMM/BND/SCHED verdict.
    """
    if plan.clause.ordering is Ordering.SEQ:
        raise NotImplementedError(
            "distributed DOACROSS (the paper's 'more complicated orderings') "
            "is not generated; use the shared-memory template for • clauses"
        )
    for read in plan.reads:
        if not read.placed:
            raise ValueError(
                f"read of array {read.name!r} has no decomposition (the plan "
                "was compiled for shared-memory execution)")

    def scalar() -> DistributedMachine:
        m = machine
        if m is None:
            m = DistributedMachine(plan.pmax)
            decs = {acc.name: acc.dec for acc in plan.accesses()}
            for name, arr in env.items():
                if name in decs:
                    m.place(name, arr, decs[name])
        m.run(lambda ctx: make_node_program(plan, ctx))
        return m

    return dispatch(backend, "dist", plan, env, machine, scalar,
                    context="run_distributed", strict=strict, model=model,
                    processes=processes, timeout=timeout)
