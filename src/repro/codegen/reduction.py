"""Reduction generation: global combines over distributed data.

V-cal's clauses are element-wise assignments; reductions
(``r = ⊕_i Expr(B[g(i)], ...)``) are the other workhorse of data-parallel
programs, and every SPMD system of the paper's era generated them the
same way:

1. *partition* — iterations are assigned to processors by an iteration
   decomposition (the analogue of owner-computes; any 1-D decomposition
   of the index domain works, and the Table I machinery enumerates each
   node's share in closed form);
2. *local phase* — each node folds its share into a private partial,
   fetching remote operands exactly like the §2.10 template;
3. *combine phase* — partials meet either **linearly** (everyone sends
   to the root: p−1 messages, critical path p−1) or on a **binary tree**
   (p−1 messages, critical path ⌈log₂ p⌉) — the E23 benchmark shows the
   difference in the paced traces;
4. optional *broadcast* — ``allreduce`` ships the result back down.

Supported operators: ``+``, ``*``, ``min``, ``max`` (associative and
commutative, so any combine order is exact up to float rounding).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from ..core.clause import Clause, Ordering
from ..core.expr import Expr, Ref, eval_fetched
from ..core.ifunc import AffineF
from ..core.indexset import IndexSet
from ..decomp.base import Decomposition
from ..machine.distributed import DistributedMachine, NodeContext
from ..pipeline.ir import PlanIR
from .dist_tmpl import _read_value
from .plan import compile_clause

__all__ = ["ReduceOp", "ReducePlan", "compile_reduce", "run_reduce",
           "reference_reduce"]

_OPS = {
    "+": (lambda a, b: a + b, 0.0),
    "*": (lambda a, b: a * b, 1.0),
    "min": (min, float("inf")),
    "max": (max, float("-inf")),
}


@dataclass(frozen=True)
class ReduceOp:
    """An associative-commutative reduction operator."""

    name: str

    def __post_init__(self):
        if self.name not in _OPS:
            raise ValueError(
                f"unsupported reduction op {self.name!r}; "
                f"choose from {sorted(_OPS)}"
            )

    @property
    def fn(self):
        return _OPS[self.name][0]

    @property
    def identity(self) -> float:
        return _OPS[self.name][1]


@dataclass
class ReducePlan:
    """Compiled reduction: the iteration partition rides on a plan whose
    'write' is the identity over the iteration decomposition."""

    op: ReduceOp
    expr: Expr
    base: PlanIR
    guard: Optional[Expr]

    @property
    def pmax(self) -> int:
        return self.base.pmax


#: internal name for the pseudo-array that carries iteration ownership
_ITER = "__iter__"


def compile_reduce(
    op: str,
    domain: IndexSet,
    expr: Expr,
    decomps: Dict[str, Decomposition],
    iter_dec: Decomposition,
    guard: Optional[Expr] = None,
) -> ReducePlan:
    """Compile ``⊕_{i in domain} expr`` with operands decomposed by
    *decomps* and iterations assigned by *iter_dec*."""
    if domain.dim != 1:
        raise ValueError("reductions are generated for 1-D domains")
    imin, imax = domain.bounds.scalar()
    if imax >= iter_dec.n:
        raise ValueError(
            f"iteration decomposition covers 0:{iter_dec.n - 1}, domain "
            f"reaches {imax}"
        )
    from ..core.view import SeparableMap

    pseudo = Clause(
        domain=domain,
        # identity "write" over the iteration space: owner-computes
        # becomes iteration-ownership
        lhs=Ref(_ITER, SeparableMap([AffineF(1, 0)])),
        rhs=expr,
        ordering=Ordering.PAR,
        guard=guard,
        name="reduce",
    )
    base = compile_clause(pseudo, {**decomps, _ITER: iter_dec})
    return ReducePlan(ReduceOp(op), expr, base, guard)


def _combine_linear(ctx: NodeContext, partial: float, op: ReduceOp,
                    pmax: int) -> Generator:
    """Everyone sends to node 0; node 0 folds in rank order."""
    p = ctx.p
    if p != 0:
        ctx.send(0, ("red",), np.array([partial]))
        return
    acc = partial
    for src in range(1, pmax):
        payload = yield ctx.recv(src, ("red",))
        acc = op.fn(acc, float(ctx.note_received(payload)[0]))
    ctx.mem.arrays["__result__"] = np.array([acc])


def _combine_tree(ctx: NodeContext, partial: float, op: ReduceOp,
                  pmax: int) -> Generator:
    """Binary-tree combine toward node 0 (⌈log2 p⌉ critical path)."""
    p = ctx.p
    acc = partial
    d = 1
    while d < pmax:
        if p % (2 * d) == d:
            ctx.send(p - d, ("red", d), np.array([acc]))
            return
        if p % (2 * d) == 0 and p + d < pmax:
            payload = yield ctx.recv(p + d, ("red", d))
            acc = op.fn(acc, float(ctx.note_received(payload)[0]))
        d *= 2
    ctx.mem.arrays["__result__"] = np.array([acc])


def _broadcast(ctx: NodeContext, pmax: int) -> Generator:
    """Binary-tree broadcast of node 0's ``__result__``."""
    p = ctx.p
    d = 1
    while d < pmax:
        d *= 2
    d //= 2
    while d >= 1:
        if p % (2 * d) == 0 and p + d < pmax:
            ctx.send(p + d, ("bcast", d), ctx.mem["__result__"])
        elif p % (2 * d) == d:
            payload = yield ctx.recv(p - d, ("bcast", d))
            ctx.mem.arrays["__result__"] = np.array(
                ctx.note_received(payload), copy=True
            )
        d //= 2


def make_reduce_program(
    plan: ReducePlan, ctx: NodeContext, combine: str = "tree",
    allreduce: bool = False, paced: bool = False,
) -> Generator:
    def program() -> Generator:
        from ..machine.scheduler import Yield

        p = ctx.p
        base = plan.base
        op = plan.op

        # ---- send phase for remote operands (same as §2.10) ---------------
        for read in base.reads:
            if read.replicated:
                continue
            for idx in read.membership(p, base.loop_bounds):
                ctx.stats.iterations += 1
                q = base.write.proc_of(idx)
                if q != p:
                    ctx.send(q, (read.pos, idx), _read_value(ctx, read, idx))

        # ---- local fold ----------------------------------------------------
        partial = op.identity
        for idx in base.modify_indices(p):
            ctx.stats.iterations += 1
            by_ref: Dict[int, float] = {}
            for read in base.reads:
                if read.replicated or read.proc_of(idx) == p:
                    by_ref[id(read.ref)] = _read_value(ctx, read, idx)
                else:
                    payload = yield ctx.recv(read.proc_of(idx),
                                             (read.pos, idx))
                    by_ref[id(read.ref)] = ctx.note_received(payload)
            if plan.guard is not None and not eval_fetched(
                plan.guard, idx, by_ref
            ):
                continue
            partial = op.fn(partial, eval_fetched(plan.expr, idx, by_ref))
            ctx.stats.local_updates += 1
            if paced:
                yield Yield()

        # ---- combine --------------------------------------------------------
        fn = _combine_tree if combine == "tree" else _combine_linear
        yield from fn(ctx, partial, op, plan.pmax)
        if allreduce:
            yield from _broadcast(ctx, plan.pmax)
        yield ctx.barrier()

    return program()


def run_reduce(
    plan: ReducePlan,
    env: Dict[str, np.ndarray],
    combine: str = "tree",
    allreduce: bool = False,
    machine: Optional[DistributedMachine] = None,
    trace: Optional[list] = None,
    paced: bool = False,
) -> Tuple[DistributedMachine, float]:
    """Place operands, run the reduction, return (machine, result).

    The result is read from node 0 (or, with ``allreduce``, checked to be
    identical on every node).
    """
    if combine not in ("tree", "linear"):
        raise ValueError("combine must be 'tree' or 'linear'")
    if machine is None:
        machine = DistributedMachine(plan.pmax)
        for read in plan.base.reads:
            if read.name not in machine.decomps:
                machine.place(read.name, env[read.name], read.dec)
    machine.run(
        lambda ctx: make_reduce_program(plan, ctx, combine, allreduce,
                                        paced),
        trace=trace,
    )
    result = float(machine.memories[0]["__result__"][0])
    if allreduce:
        for mem in machine.memories[1:]:
            assert float(mem["__result__"][0]) == result, \
                "allreduce copies diverged"
    return machine, result


def reference_reduce(
    plan: ReducePlan, env: Dict[str, np.ndarray]
) -> float:
    """Sequential oracle for the reduction."""
    op = plan.op
    acc = op.identity
    for idx in plan.base.clause.domain:
        if plan.guard is not None and not plan.guard.eval(idx, env):
            continue
        acc = op.fn(acc, plan.expr.eval(idx, env))
    return acc
