"""Compiling a V-cal clause + decompositions into an SPMD plan.

This is the Section 2.6 derivation made executable.  Starting from the
canonical clause (paper Eq. (1))

    ``∆(i ∈ (imin:imax)) [f(i)]A := Expr([g(i)](B), ...)``

and a decomposition for every array, the plan captures the rewritten form
Eq. (3): the processor parameter ``p``, the membership condition
``proc_A(f(i)) = p`` (compiled to a Table I enumerator — the *owner
computes* rule), and the placement ``(proc, local)`` of every read.

The plan (a :class:`~repro.pipeline.ir.PlanIR`) is machine-independent;
:mod:`repro.codegen.shared_tmpl` and :mod:`repro.codegen.dist_tmpl`
instantiate it for the two machine models, and
:mod:`repro.codegen.pysource` emits it as Python node-program source.
"""

from __future__ import annotations

from typing import Dict

from ..core.clause import Clause
from ..decomp.base import Decomposition
from ..pipeline.ir import PlanIR

__all__ = ["compile_clause", "check_canonical"]


def check_canonical(clause: Clause, decomps: Dict[str, Decomposition]) -> None:
    """The contract of the canonical 1-D clause: raises ``KeyError`` when
    an array lacks a decomposition and ``ValueError`` for shapes outside
    the paper's canonical form (non-1-D domains, arrays over different
    processor counts, non-separable accesses)."""
    if clause.domain.dim != 1:
        raise ValueError(
            "SPMD generation implements the paper's canonical 1-D clause; "
            f"got a {clause.domain.dim}-D domain"
        )
    write_dec = decomps[clause.lhs.name]
    clause.lhs.scalar_func()  # same non-separable ValueError as always
    pmax = write_dec.pmax

    for ref in clause.reads():
        dec = decomps[ref.name]
        if dec.pmax != pmax:
            raise ValueError(
                f"array {ref.name!r} decomposed over {dec.pmax} processors, "
                f"but {clause.lhs.name!r} over {pmax}"
            )
        ref.scalar_func()


def compile_clause(
    clause: Clause, decomps: Dict[str, Decomposition]
) -> PlanIR:
    """Compile a 1-D canonical clause against per-array decompositions.

    A contract check (:func:`check_canonical`) over the unified pass
    pipeline (:func:`repro.pipeline.compile_plan`), whose
    :class:`PlanIR` it returns.
    """
    check_canonical(clause, decomps)
    from ..pipeline import compile_plan

    return compile_plan(clause, decomps)
