"""Generated stencil programs over overlapped decompositions (§5).

The paper lists "overlapped decompositions" as future work; this module
implements them end to end for the workload they exist for — iterated
stencils.  A clause

    ``∆(i) // A[i] := Expr(B[i - r], .., B[i + r])``

over :class:`~repro.decomp.overlap.OverlappedBlock` structures with halo
width ``>= r`` compiles to node programs that

1. *refresh halos* — one **coalesced** message per neighbour pair
   carrying the whole boundary strip (instead of one message per element
   per read, which is what the general §2.10 template does), then
2. *compute purely locally* — every read is resident by construction,

which is the classic ghost-cell pattern.  The E16 ablation benchmark
compares the two message disciplines as the stencil radius grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from ..core.clause import Clause, Ordering
from ..core.expr import eval_fetched
from ..core.ifunc import AffineF
from ..decomp.overlap import OverlappedBlock, halo_exchange_plan
from ..machine.distributed import DistributedMachine, NodeContext

__all__ = ["HaloPlan", "compile_halo_stencil", "run_halo_stencil",
           "make_halo_program"]


@dataclass
class HaloPlan:
    """A validated halo-stencil clause: decompositions, shifts, and the
    per-array coalesced exchange plans."""

    clause: Clause
    write_dec: OverlappedBlock
    read_decs: Dict[str, OverlappedBlock]
    shifts: Dict[int, int]  # read position -> shift c
    imin: int
    imax: int

    @property
    def write_name(self) -> str:
        return self.clause.lhs.name

    @property
    def pmax(self) -> int:
        return self.write_dec.pmax

    def radius(self) -> int:
        return max((abs(c) for c in self.shifts.values()), default=0)


def compile_halo_stencil(
    clause: Clause, decomps: Dict[str, OverlappedBlock]
) -> HaloPlan:
    """Validate a stencil clause against overlapped decompositions."""
    if clause.ordering is not Ordering.PAR:
        raise ValueError("halo stencils are //-clauses")
    if clause.domain.dim != 1:
        raise ValueError("halo stencil generation is 1-D")
    imin, imax = clause.domain.bounds.scalar()

    wd = decomps[clause.lhs.name]
    if not isinstance(wd, OverlappedBlock):
        raise ValueError("write decomposition must be an OverlappedBlock")
    wf = clause.lhs.scalar_func()
    if not (isinstance(wf, AffineF) and wf.a == 1 and wf.c == 0):
        raise ValueError("halo stencil writes must be identity A[i]")

    shifts: Dict[int, int] = {}
    read_decs: Dict[str, OverlappedBlock] = {}
    for pos, ref in enumerate(clause.reads()):
        dec = decomps[ref.name]
        if not isinstance(dec, OverlappedBlock):
            raise ValueError(
                f"read {ref.name!r} must use an OverlappedBlock"
            )
        if dec.pmax != wd.pmax or dec.b != wd.b or dec.n != wd.n:
            raise ValueError(
                f"read {ref.name!r} must align with the write decomposition"
            )
        g = ref.scalar_func()
        if not (isinstance(g, AffineF) and g.a == 1):
            raise ValueError(
                f"stencil reads must be shifts B[i + c]; got {g.name}"
            )
        if abs(g.c) > dec.halo:
            raise ValueError(
                f"shift {g.c} exceeds halo width {dec.halo} of {ref.name!r}"
            )
        lo, hi = g(imin), g(imax)
        if lo < 0 or hi >= dec.n:
            raise ValueError(
                f"read {ref.name}[i{g.c:+d}] leaves the array on "
                f"domain {imin}:{imax}"
            )
        shifts[pos] = g.c
        read_decs[ref.name] = dec
    return HaloPlan(clause, wd, read_decs, shifts, imin, imax)


def make_halo_program(plan: HaloPlan, ctx: NodeContext) -> Generator:
    """Node program: coalesced halo refresh, then purely local compute."""

    def program() -> Generator:
        p = ctx.p
        clause = plan.clause
        wd = plan.write_dec

        # ---- halo refresh: one message per (src, dst, array) -------------
        for name, dec in plan.read_decs.items():
            exchange = halo_exchange_plan(dec)
            outgoing: Dict[int, List] = {}
            for (src, dst), transfers in exchange.items():
                if src != p:
                    continue
                buf = ctx.mem[name]
                payload = np.array([
                    buf[dec.local_slot(p, t.global_index)] for t in transfers
                ])
                ctx.send(dst, ("halo", name), payload)
            incoming = sorted(
                src for (src, dst) in exchange if dst == p
            )
            for src in incoming:
                transfers = exchange[(src, p)]
                payload = yield ctx.recv(src, ("halo", name))
                ctx.note_received(payload)
                buf = ctx.mem[name]
                for t, v in zip(transfers, payload):
                    buf[t.dst_slot] = v

        # ---- purely local compute ------------------------------------------
        reads = list(clause.reads())
        pending: List[Tuple[int, float]] = []
        for i in wd.owned(p):
            if not (plan.imin <= i <= plan.imax):
                continue
            ctx.stats.iterations += 1
            by_ref = {}
            for pos, ref in enumerate(reads):
                dec = plan.read_decs[ref.name]
                gi = i + plan.shifts[pos]
                by_ref[id(ref)] = ctx.mem[ref.name][dec.local_slot(p, gi)]
            idx = (i,)
            if clause.guard is not None and not eval_fetched(
                clause.guard, idx, by_ref
            ):
                continue
            pending.append((wd.local_slot(p, i),
                            eval_fetched(clause.rhs, idx, by_ref)))
        for slot, value in pending:
            ctx.mem[plan.write_name][slot] = value
            ctx.stats.local_updates += 1

        yield ctx.barrier()

    return program()


def run_halo_stencil(
    plan: HaloPlan,
    env: Dict[str, np.ndarray],
    machine: Optional[DistributedMachine] = None,
) -> DistributedMachine:
    """Place, run one stencil application, return the machine."""
    if machine is None:
        machine = DistributedMachine(plan.pmax)
        machine.place(plan.write_name, env[plan.write_name], plan.write_dec)
        for name, dec in plan.read_decs.items():
            if name not in machine.decomps:
                machine.place(name, env[name], dec)
    machine.run(lambda ctx: make_halo_program(plan, ctx))
    return machine
