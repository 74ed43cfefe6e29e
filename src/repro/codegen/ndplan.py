"""Multi-dimensional SPMD generation over processor grids.

The paper presents its derivation for the canonical 1-D clause "for
reasons of clarity" (§2.6); the index-set machinery is d-dimensional
throughout.  This module checks the contract of the natural d-dimensional
lifting for shared-memory machines: with a product decomposition
(:class:`~repro.decomp.multidim.GridDecomposition`) the owner of
``M[f_0(i_0), .., f_k(i_k)]`` is the grid point
``(proc_0(f_0(i_0)), .., proc_k(f_k(i_k)))`` — so the membership set
``Modify_p`` *factorizes into a Cartesian product of 1-D memberships*,
and every Table I closed form applies per dimension unchanged.

Loop dimensions the write does not constrain (e.g. the reduction index
``j`` in ``y[i] := y[i] + M[i,j] x[j]``) iterate their full range on the
owning node.
"""

from __future__ import annotations

from typing import Dict, Union

from ..core.clause import Clause
from ..decomp.base import Decomposition
from ..decomp.multidim import GridDecomposition
from ..pipeline.ir import PlanIR, access_spec
from .shared_tmpl import run_shared

__all__ = ["compile_clause_nd", "run_shared_nd"]

AnyDec = Union[Decomposition, GridDecomposition]


def compile_clause_nd(
    clause: Clause, decomps: Dict[str, AnyDec]
) -> PlanIR:
    """Compile a d-dimensional clause against a grid decomposition of the
    written array (shared-memory execution).

    A contract check over the unified pass pipeline: reads address
    global memory directly here, so only the written array needs a
    decomposition."""
    out_dims, funcs = access_spec(clause.lhs.imap)
    if len(set(out_dims)) != len(out_dims):
        raise ValueError(
            "two output dimensions draw from the same loop dimension"
        )
    wd = decomps[clause.lhs.name]
    ndim_w = wd.ndim if isinstance(wd, GridDecomposition) else 1
    if ndim_w != len(funcs):
        raise ValueError(
            f"write decomposition rank {ndim_w} != access rank {len(funcs)}"
        )
    from ..pipeline import compile_plan

    return compile_plan(clause, decomps, require_read_decomps=False)


#: the §2.9 template is rank-generic; the nd name is kept for its callers
run_shared_nd = run_shared
