"""Idiom recognition: sequential accumulation clauses are reductions.

The front end translates ``for i := ... seq do s[0] := s[0] + B[i]*C[i]``
into a ``•``-ordered clause — semantically a serial chain, which the
DOACROSS machinery would pipeline at depth 1 (i.e. not at all).  But the
*idiom* is a reduction over an associative operator, and recognizing it
recovers all the parallelism: local folds + log-depth combine.

:func:`recognize_reduction` matches clauses of the shape

    ``∆(i) • s[c] := s[c] ⊕ Expr(...)``        ⊕ ∈ {+, *, min, max}

where the accumulator ``s[c]`` is a constant element not read by
``Expr``; :func:`run_clause_or_reduction` executes a clause through the
reduction path when the idiom matches (writing the result into the
accumulator on its owner), and through the ordinary templates otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.clause import Clause, Ordering
from ..core.expr import REDUCIBLE, BinOp, Expr, Ref
from ..core.ifunc import ConstantF
from ..decomp.base import Decomposition
from ..machine.distributed import DistributedMachine
from .reduction import compile_reduce, run_reduce

__all__ = ["RecognizedReduction", "recognize_reduction",
           "run_clause_or_reduction"]


@dataclass(frozen=True)
class RecognizedReduction:
    """A clause identified as ``s[c] := s[c] ⊕ Expr``."""

    op: str
    accumulator: str
    slot: int
    body: Expr


def _is_accumulator_ref(e: Expr, clause: Clause) -> Optional[int]:
    """Is *e* a read of the clause's own target at a constant index?
    Returns the constant slot, or None."""
    if not isinstance(e, Ref) or e.name != clause.lhs.name:
        return None
    try:
        f = e.scalar_func()
    except ValueError:
        return None
    if isinstance(f, ConstantF):
        return f.c
    return None


def recognize_reduction(clause: Clause) -> Optional[RecognizedReduction]:
    """Match the accumulation idiom; None when the clause is not one."""
    if clause.ordering is not Ordering.SEQ:
        return None
    if clause.domain.dim != 1:
        return None
    try:
        wf = clause.lhs.scalar_func()
    except ValueError:
        return None
    if not isinstance(wf, ConstantF):
        return None
    rhs = clause.rhs
    if not isinstance(rhs, BinOp) or rhs.op not in REDUCIBLE:
        return None
    # one operand must be the accumulator read, the other the body
    for acc_side, body in ((rhs.left, rhs.right), (rhs.right, rhs.left)):
        slot = _is_accumulator_ref(acc_side, clause)
        if slot is None or slot != wf.c:
            continue
        # the body must not read the accumulator array (else the chain
        # is a genuine recurrence, not a reduction)
        if any(r.name == clause.lhs.name for r in body.refs()):
            return None
        if clause.guard is not None and any(
            r.name == clause.lhs.name for r in clause.guard.refs()
        ):
            return None
        return RecognizedReduction(rhs.op, clause.lhs.name, slot, body)
    return None


def run_clause_or_reduction(
    clause: Clause,
    decomps: Dict[str, Decomposition],
    env: Dict[str, np.ndarray],
    iter_dec: Optional[Decomposition] = None,
) -> Tuple[DistributedMachine, str]:
    """Execute *clause* distributed, through the reduction path when the
    idiom matches.  Returns ``(machine, path)`` with path in
    {"reduction", "template"}.

    For the reduction path the accumulator's previous value is folded in
    (the loop starts from the stored ``s[c]``) and the result is written
    back to the accumulator element on its owner, so the machine state
    afterwards is exactly what the sequential clause produces.
    """
    rec = recognize_reduction(clause)
    if rec is None:
        from .dist_tmpl import run_distributed
        from .plan import compile_clause

        return run_distributed(compile_clause(clause, decomps), env), \
            "template"

    if iter_dec is None:
        # default: block-partition the iteration domain
        from ..decomp.block import Block

        _lo, hi = clause.domain.bounds.scalar()
        acc_dec = decomps[rec.accumulator]
        iter_dec = Block(hi + 1, acc_dec.pmax)

    read_decomps = {
        name: decomps[name]
        for name in {r.name for r in rec.body.refs()}
    }
    if clause.guard is not None:
        for r in clause.guard.refs():
            read_decomps.setdefault(r.name, decomps[r.name])
    plan = compile_reduce(rec.op, clause.domain, rec.body, read_decomps,
                          iter_dec, guard=clause.guard)
    machine, value = run_reduce(plan, env)

    # fold in the accumulator's initial value and store on its owner
    from .reduction import ReduceOp

    op = ReduceOp(rec.op)
    init = float(env[rec.accumulator][rec.slot])
    total = op.fn(init, value)
    acc_dec = decomps[rec.accumulator]
    machine.place(rec.accumulator, env[rec.accumulator], acc_dec)
    owner = acc_dec.proc(rec.slot)
    machine.memories[owner][rec.accumulator][acc_dec.local(rec.slot)] = total
    return machine, "reduction"
