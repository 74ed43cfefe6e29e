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
  searched); if ``q ≠ p`` the element is sent, tagged ``(r.pos, i)``.
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
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from ..backends import dispatch
from ..core.clause import Ordering
from ..decomp.replicated import Replicated
from ..machine.distributed import DistributedMachine, NodeContext
from ..sets.membership import Work
from .plan import CompiledRead, SPMDPlan

__all__ = ["make_node_program", "run_distributed"]


def _read_value(ctx: NodeContext, read: CompiledRead, i: int):
    """Local fetch of read *pos* at global index *i* (must be resident)."""
    gi = read.func(i)
    if isinstance(read.dec, Replicated):
        return ctx.mem[read.name][gi]
    return ctx.mem[read.name][read.dec.local(gi)]


def make_node_program(plan: SPMDPlan, ctx: NodeContext) -> Generator:
    """Node program generator for processor ``ctx.p`` — the optimized
    instantiation of the §2.10 template."""

    def program() -> Generator:
        p = ctx.p
        clause = plan.clause
        work = Work()

        # ---- send phase -------------------------------------------------
        for read in plan.reads:
            if read.always_local:
                continue  # replicated reads never communicate
            for i in plan.reside_indices(read, p, work):
                ctx.stats.iterations += 1
                for q in plan.writers_of(i):
                    if q == p:
                        continue
                    ctx.send(q, (read.pos, i), _read_value(ctx, read, i))

        # ---- update phase ------------------------------------------------
        # Writes are buffered and committed after the loop: a //-clause
        # iteration must never observe another iteration's write (the
        # paper's independence premise); sends above already shipped
        # pre-state values because they precede all updates in program
        # order on every node.
        pending: List[Tuple[int, float]] = []
        for i in plan.modify_indices(p, work):
            ctx.stats.iterations += 1
            by_ref: Dict[int, float] = {}
            for read in plan.reads:
                if read.always_local or read.dec.proc(read.func(i)) == p:
                    by_ref[id(read.ref)] = _read_value(ctx, read, i)
                else:
                    src = read.dec.proc(read.func(i))
                    payload = yield ctx.recv(src, (read.pos, i))
                    by_ref[id(read.ref)] = ctx.note_received(payload)
            idx = (i,)
            if clause.guard is not None and not _eval_fetched(
                clause.guard, idx, by_ref
            ):
                continue
            gi = plan.write_func(i)
            slot = gi if plan.write_replicated else plan.write_dec.local(gi)
            pending.append((slot, _eval_fetched(clause.rhs, idx, by_ref)))
        for slot, value in pending:
            ctx.update(plan.write_name, slot, value)

        ctx.stats.membership_tests += work.tests
        yield ctx.barrier()

    return program()


def _eval_fetched(expr, idx: Tuple[int, ...], by_ref: Dict[int, float]):
    """Evaluate an expression tree with every data reference resolved to
    its pre-fetched value (local load or received message), keyed by the
    identity of the Ref node — exact, regardless of how many times the
    same array appears with different access functions."""
    from ..core.expr import OPS, UNARY_OPS, BinOp, Const, LoopIndex, Ref, UnOp

    if isinstance(expr, Ref):
        return by_ref[id(expr)]
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, LoopIndex):
        return idx[expr.dim]
    if isinstance(expr, BinOp):
        return OPS[expr.op](
            _eval_fetched(expr.left, idx, by_ref),
            _eval_fetched(expr.right, idx, by_ref),
        )
    if isinstance(expr, UnOp):
        return UNARY_OPS[expr.op](_eval_fetched(expr.operand, idx, by_ref))
    raise TypeError(f"cannot evaluate expression node {type(expr).__name__}")


def run_distributed(
    plan: SPMDPlan,
    env: Dict[str, np.ndarray],
    machine: Optional[DistributedMachine] = None,
    decomps: Optional[Dict[str, object]] = None,
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
    flagged; *processes*/*timeout* apply to ``mp``/``mpi``.  A simulator
    deadlock leaves citing the static COMM/BND/SCHED verdict.
    """
    if plan.clause.ordering is Ordering.SEQ:
        raise NotImplementedError(
            "distributed DOACROSS (the paper's 'more complicated orderings') "
            "is not generated; use the shared-memory template for • clauses"
        )

    def scalar() -> DistributedMachine:
        m = machine
        if m is None:
            m = DistributedMachine(plan.pmax)
            all_decomps = {plan.write_name: plan.write_dec}
            for read in plan.reads:
                all_decomps[read.name] = read.dec
            for name, arr in env.items():
                if name in all_decomps:
                    m.place(name, arr, all_decomps[name])
        m.run(lambda ctx: make_node_program(plan, ctx))
        return m

    return dispatch(backend, "dist", plan.ir, env, machine, scalar,
                    context="run_distributed", strict=strict, model=model,
                    processes=processes, timeout=timeout)
