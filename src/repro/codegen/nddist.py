"""d-dimensional distributed-memory SPMD generation.

The contract of the §2.10 template's lifting to product decompositions:
for a ``//`` clause over a d-dimensional domain with separable/projected
accesses, the write owner is a grid point and both ``Modify_p`` and every
``Reside_p`` factorize into Cartesian products of 1-D Table I
memberships (see :mod:`repro.codegen.ndplan`).  The template itself is
:mod:`repro.codegen.dist_tmpl`, at any rank.

Reads of lower rank than the loop nest (e.g. ``x[j]`` inside an
``(i, j)`` loop) are supported; note that such a read is shipped once per
*consuming iteration*, so a reduction operand that many iterations share
is cheaper replicated — exactly the trade-off the matvec example shows.
"""

from __future__ import annotations

from typing import Dict, Union

import numpy as np

from ..core.clause import Clause, Ordering
from ..decomp.base import Decomposition
from ..decomp.multidim import GridDecomposition
from ..decomp.replicated import Replicated
from ..machine.distributed import DistributedMachine
from ..pipeline.ir import PlanIR, access_spec
from .dist_tmpl import make_node_program, run_distributed

__all__ = ["compile_clause_nd_dist", "run_distributed_nd", "collect_nd"]

AnyDec = Union[Decomposition, GridDecomposition]


def compile_clause_nd_dist(
    clause: Clause, decomps: Dict[str, AnyDec]
) -> PlanIR:
    """Compile a d-dimensional ``//`` clause for distributed execution.

    A contract check over the unified pass pipeline (``//`` only, no
    replicated write, matching ranks and processor counts)."""
    if clause.ordering is not Ordering.PAR:
        raise ValueError("ND distributed generation handles // clauses")

    def check_rank(name: str, imap, dec: AnyDec) -> None:
        _dims, funcs = access_spec(imap)
        axes = (dec.dims if isinstance(dec, GridDecomposition) else (dec,))
        if len(axes) != len(funcs):
            raise ValueError(
                f"access rank {len(funcs)} of {name!r} != decomposition "
                f"rank {len(axes)}"
            )

    wd = decomps[clause.lhs.name]
    if isinstance(wd, Replicated):
        raise ValueError("replicated writes are not supported in ND mode")
    check_rank(clause.lhs.name, clause.lhs.imap, wd)
    pmax = wd.pmax

    for ref in clause.reads():
        dec = decomps[ref.name]
        if dec.pmax != pmax and not isinstance(dec, Replicated):
            raise ValueError(
                f"{ref.name!r} decomposed over {dec.pmax} processors, "
                f"write over {pmax}"
            )
        if isinstance(dec, Replicated):
            access_spec(ref.imap)  # same shape error as before
        else:
            check_rank(ref.name, ref.imap, dec)

    from ..pipeline import compile_plan

    return compile_plan(clause, decomps)


#: the §2.10 template is rank-generic; the nd names are kept for their
#: callers
make_nd_node_program = make_node_program
run_distributed_nd = run_distributed


def collect_nd(machine: DistributedMachine, name: str) -> np.ndarray:
    """Gather a grid-decomposed array back to its global nd view
    (``machine.collect`` under the name nd callers already use)."""
    return machine.collect(name)
