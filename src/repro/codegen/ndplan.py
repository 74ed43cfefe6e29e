"""Multi-dimensional SPMD generation over processor grids.

The paper presents its derivation for the canonical 1-D clause "for
reasons of clarity" (§2.6); the index-set machinery is d-dimensional
throughout.  This module implements the natural d-dimensional lifting for
shared-memory machines: with a product decomposition
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

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..backends import dispatch
from ..core.clause import Clause, Ordering
from ..decomp.base import Decomposition
from ..decomp.multidim import GridDecomposition
from ..machine.shared import SharedMachine
from ..pipeline.ir import access_spec
from ..sets.membership import Work
from ..sets.table1 import OptimizedAccess, optimize_access

__all__ = ["NDPlan", "compile_clause_nd", "run_shared_nd"]

AnyDec = Union[Decomposition, GridDecomposition]


@dataclass
class NDPlan:
    """Compiled d-dimensional clause: per-output-dimension memberships."""

    clause: Clause
    write_dec: AnyDec
    #: loop-dimension index feeding each output dimension
    out_dims: Tuple[int, ...]
    #: per-output-dimension Table I enumerator
    dim_access: List[OptimizedAccess]
    #: loop bounds per loop dimension
    loop_bounds: List[Tuple[int, int]]
    pmax: int
    #: unified pipeline IR and pass trace (set by ``compile_clause_nd``)
    ir: object = field(default=None, repr=False, compare=False)
    trace: object = field(default=None, repr=False, compare=False)

    def rules(self) -> Dict[str, str]:
        return {
            f"dim{k}": acc.rule for k, acc in enumerate(self.dim_access)
        }

    def modify_indices(
        self, p: int, work: Optional[Work] = None
    ) -> List[Tuple[int, ...]]:
        """``Modify_p`` as the Cartesian product of per-dimension sets,
        in lexicographic order over the loop dimensions."""
        coord = (self.write_dec.grid_coord(p)
                 if isinstance(self.write_dec, GridDecomposition) else (p,))
        per_loop_dim: List[List[int]] = []
        for d, (lo, hi) in enumerate(self.loop_bounds):
            if d in self.out_dims:
                k = self.out_dims.index(d)
                enum = self.dim_access[k].enumerate(coord[k], work)
                per_loop_dim.append(enum.indices())
            else:
                per_loop_dim.append(list(range(lo, hi + 1)))
        return list(itertools.product(*per_loop_dim))


def compile_clause_nd(
    clause: Clause, decomps: Dict[str, AnyDec]
) -> NDPlan:
    """Compile a d-dimensional clause against a grid decomposition of the
    written array (shared-memory execution).

    A shim over the unified pass pipeline: reads address global memory
    directly here, so only the written array needs a decomposition."""
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

    return compile_plan(
        clause, decomps, require_read_decomps=False
    ).to_nd_plan()


def run_shared_nd(
    plan: NDPlan,
    env: Dict[str, np.ndarray],
    machine: Optional[SharedMachine] = None,
    backend: str = "scalar",
    strict: bool = False,
    processes: Optional[int] = None,
    timeout: Optional[float] = None,
) -> SharedMachine:
    """Execute on the shared-memory machine (direct global addressing).

    Backends, fallbacks and *strict* behave exactly as for
    :func:`~repro.codegen.shared_tmpl.run_shared` (one dispatcher — see
    the "Backend tiers" table in ``docs/execution.md``); ``overlap`` is
    not accepted here.  • clauses always end on the scalar path.
    """
    clause = plan.clause
    if machine is None:
        machine = SharedMachine(plan.pmax, env)

    def store(p: int, ai: Tuple[int, ...], value) -> None:
        machine.env[clause.lhs.name][ai if len(ai) > 1 else ai[0]] = value
        machine.stats[p].local_updates += 1

    def scalar() -> SharedMachine:
        if clause.ordering is Ordering.SEQ:
            # global lexicographic serialization, charged to owners
            order = sorted(((idx, p) for p in range(plan.pmax)
                            for idx in plan.modify_indices(p)))
            for idx, p in order:
                machine.stats[p].iterations += 1
                if clause.guard is None or clause.guard.eval(
                        idx, machine.env):
                    store(p, clause.lhs.array_index(idx),
                          clause.rhs.eval(idx, machine.env))
            return machine
        # // phase: every node reads pre-state, commits follow in node
        # order (SharedMachine.run_phase stores via [idx]; indices here
        # are tuples)
        buffers = []
        for p in range(plan.pmax):
            writes = []
            work = Work()
            for idx in plan.modify_indices(p, work):
                machine.stats[p].iterations += 1
                if clause.guard is None or clause.guard.eval(
                        idx, machine.env):
                    writes.append((clause.lhs.array_index(idx),
                                   clause.rhs.eval(idx, machine.env)))
            machine.stats[p].membership_tests += work.tests
            buffers.append(writes)
        for p, writes in enumerate(buffers):
            for ai, value in writes:
                store(p, ai, value)
            machine.stats[p].barriers += 1
        return machine

    return dispatch(
        backend, "shared", plan.ir, env, machine, scalar,
        context="run_shared_nd",
        allowed=("scalar", "vector", "fused", "native", "mp", "mpi"),
        strict=strict, processes=processes, timeout=timeout)
