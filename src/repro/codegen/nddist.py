"""d-dimensional distributed-memory SPMD generation.

The full lifting of the §2.10 template to product decompositions: for a
``//`` clause over a d-dimensional domain with separable/projected
accesses, the write owner is a grid point and both ``Modify_p`` and every
``Reside_p`` factorize into Cartesian products of 1-D Table I
memberships (see :mod:`repro.codegen.ndplan`).  The communication
pattern is the same send/update phase pair as the 1-D template, with
index *tuples* in the message tags.

Reads of lower rank than the loop nest (e.g. ``x[j]`` inside an
``(i, j)`` loop) are supported; note that such a read is shipped once per
*consuming iteration*, so a reduction operand that many iterations share
is cheaper replicated — exactly the trade-off the matvec example shows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..backends import dispatch
from ..core.clause import Clause, Ordering
from ..decomp.base import Decomposition
from ..decomp.multidim import GridDecomposition
from ..decomp.replicated import Replicated
from ..machine.distributed import DistributedMachine, NodeContext
from ..pipeline.ir import access_spec
from ..sets.table1 import OptimizedAccess, optimize_access
from .dist_tmpl import _eval_fetched

__all__ = ["NDDistPlan", "compile_clause_nd_dist", "run_distributed_nd"]

AnyDec = Union[Decomposition, GridDecomposition]
Index = Tuple[int, ...]


@dataclass
class _NDAccess:
    """One array access compiled against its decomposition: per-output-dim
    loop source and 1-D membership enumerators."""

    name: str
    dec: AnyDec
    dims: Tuple[int, ...]
    funcs: tuple
    per_dim: List[OptimizedAccess]

    @property
    def replicated(self) -> bool:
        return isinstance(self.dec, Replicated)

    def array_index(self, idx: Index) -> Index:
        return tuple(f(idx[d]) for d, f in zip(self.dims, self.funcs))

    def proc_of(self, idx: Index) -> int:
        ai = self.array_index(idx)
        if isinstance(self.dec, GridDecomposition):
            return self.dec.proc(ai)
        return self.dec.proc(ai[0])

    def local_of(self, idx: Index):
        ai = self.array_index(idx)
        if isinstance(self.dec, GridDecomposition):
            return self.dec.local(ai)
        return self.dec.local(ai[0])

    def membership(self, p: int, loop_bounds) -> List[Index]:
        """``{idx in domain | proc(access(idx)) = p}`` as a factorized
        product, lexicographic."""
        coord = (self.dec.grid_coord(p)
                 if isinstance(self.dec, GridDecomposition) else (p,))
        per_loop: List[List[int]] = []
        for d, (lo, hi) in enumerate(loop_bounds):
            if d in self.dims:
                k = self.dims.index(d)
                per_loop.append(self.per_dim[k].enumerate(coord[k]).indices())
            else:
                per_loop.append(list(range(lo, hi + 1)))
        return list(itertools.product(*per_loop))


def _compile_access(ref_name: str, imap, dec: AnyDec, loop_bounds) -> _NDAccess:
    dims, funcs = access_spec(imap)
    axes = (dec.dims if isinstance(dec, GridDecomposition) else (dec,))
    if len(axes) != len(funcs):
        raise ValueError(
            f"access rank {len(funcs)} of {ref_name!r} != decomposition "
            f"rank {len(axes)}"
        )
    per_dim = []
    for k, f in enumerate(funcs):
        lo, hi = loop_bounds[dims[k]]
        per_dim.append(optimize_access(axes[k], f, lo, hi))
    return _NDAccess(ref_name, dec, dims, funcs, per_dim)


@dataclass
class NDDistPlan:
    clause: Clause
    write: _NDAccess
    reads: List[_NDAccess]
    loop_bounds: List[Tuple[int, int]]
    pmax: int
    #: unified pipeline IR and pass trace (set by ``compile_clause_nd_dist``)
    ir: object = field(default=None, repr=False, compare=False)
    trace: object = field(default=None, repr=False, compare=False)

    def rules(self) -> Dict[str, str]:
        out = {}
        for k, acc in enumerate(self.write.per_dim):
            out[f"write:dim{k}"] = acc.rule
        for pos, read in enumerate(self.reads):
            for k, acc in enumerate(read.per_dim):
                out[f"read{pos}:{read.name}:dim{k}"] = acc.rule
        return out


def compile_clause_nd_dist(
    clause: Clause, decomps: Dict[str, AnyDec]
) -> NDDistPlan:
    """Compile a d-dimensional ``//`` clause for distributed execution.

    A shim over the unified pass pipeline: the historical contract
    (``//`` only, no replicated write, matching ranks and processor
    counts) is enforced here, then the Plan IR is projected onto
    :class:`NDDistPlan`."""
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

    return compile_plan(clause, decomps).to_nd_dist_plan()


def _read_local(ctx: NodeContext, read: _NDAccess, idx: Index):
    buf = ctx.mem[read.name]
    if read.replicated:
        ai = read.array_index(idx)
        return buf[ai if len(ai) > 1 else ai[0]]
    li = read.local_of(idx)
    return buf[li if isinstance(li, tuple) and len(li) > 1 else
               (li[0] if isinstance(li, tuple) else li)]


def make_nd_node_program(plan: NDDistPlan, ctx: NodeContext) -> Generator:
    def program() -> Generator:
        p = ctx.p
        clause = plan.clause
        refs = list(clause.reads())

        # ---- send phase ---------------------------------------------------
        for pos, read in enumerate(plan.reads):
            if read.replicated:
                continue
            for idx in read.membership(p, plan.loop_bounds):
                ctx.stats.iterations += 1
                q = plan.write.proc_of(idx)
                if q != p:
                    ctx.send(q, (pos, idx), _read_local(ctx, read, idx))

        # ---- update phase (buffered writes, // premise) --------------------
        pending = []
        for idx in plan.write.membership(p, plan.loop_bounds):
            ctx.stats.iterations += 1
            by_ref: Dict[int, float] = {}
            for pos, (read, ref) in enumerate(zip(plan.reads, refs)):
                if read.replicated or read.proc_of(idx) == p:
                    by_ref[id(ref)] = _read_local(ctx, read, idx)
                else:
                    src = read.proc_of(idx)
                    payload = yield ctx.recv(src, (pos, idx))
                    by_ref[id(ref)] = ctx.note_received(payload)
            if clause.guard is not None and not _eval_fetched(
                clause.guard, idx, by_ref
            ):
                continue
            pending.append((plan.write.local_of(idx),
                            _eval_fetched(clause.rhs, idx, by_ref)))
        wbuf = ctx.mem[plan.write.name]
        for li, value in pending:
            key = li if isinstance(li, tuple) and len(li) > 1 else (
                li[0] if isinstance(li, tuple) else li)
            wbuf[key] = value
            ctx.stats.local_updates += 1

        yield ctx.barrier()

    return program()


def run_distributed_nd(
    plan: NDDistPlan,
    env: Dict[str, np.ndarray],
    machine: Optional[DistributedMachine] = None,
    backend: str = "scalar",
    model=None,
    strict: bool = False,
    processes: Optional[int] = None,
    timeout: Optional[float] = None,
) -> DistributedMachine:
    """Place *env* (grid decompositions get nd-local layouts), run the
    clause, return the machine; use :func:`collect_nd` for grid arrays.

    Backends, fallbacks, *model*, *strict*, *processes*/*timeout* and
    deadlock citation behave exactly as for
    :func:`~repro.codegen.dist_tmpl.run_distributed` (one dispatcher —
    see the "Backend tiers" table in ``docs/execution.md``); ``mpi``
    attaches ranks through a Cartesian grid matching the decomposition.
    """

    def scalar() -> DistributedMachine:
        m = machine
        if m is None:
            m = DistributedMachine(plan.pmax)
            decs: Dict[str, AnyDec] = {plan.write.name: plan.write.dec}
            for read in plan.reads:
                decs.setdefault(read.name, read.dec)
            for name, dec in decs.items():
                m.place(name, env[name], dec)
        m.run(lambda ctx: make_nd_node_program(plan, ctx))
        return m

    return dispatch(backend, "dist", plan.ir, env, machine, scalar,
                    context="run_distributed_nd", strict=strict,
                    model=model, processes=processes, timeout=timeout)


def collect_nd(machine: DistributedMachine, name: str) -> np.ndarray:
    """Gather a grid-decomposed array back to its global nd view
    (``machine.collect`` under the name nd callers already use)."""
    return machine.collect(name)
