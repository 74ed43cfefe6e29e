"""The unoptimized "elementary program" (paper Section 3 intro).

This is the baseline every Section 3 optimization is measured against:
node programs that loop over the **full** index range and decide
membership with run-time ``proc(f(i)) = p`` tests — worst-case
``imax - imin + 1`` iterations with tests per node while only
``(imax - imin)/p`` indices are actually processed per node.

Both machine models are provided; semantics are identical to the
optimized templates, only the overhead differs, which is exactly what the
E10 benchmark shows.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from ..core.clause import Ordering
from ..machine.distributed import DistributedMachine, NodeContext
from ..machine.shared import SharedMachine
from ..codegen.dist_tmpl import _read_value
from ..core.expr import eval_fetched
from ..pipeline.ir import PlanIR

__all__ = ["run_shared_naive", "run_distributed_naive", "make_naive_node_program"]


def run_shared_naive(
    plan: PlanIR,
    env: Dict[str, np.ndarray],
    machine: Optional[SharedMachine] = None,
) -> SharedMachine:
    """Section 2.9 template with run-time membership tests over the full
    range on every node."""
    if plan.clause.ordering is Ordering.SEQ:
        raise NotImplementedError("naive baseline implements // clauses")
    if machine is None:
        machine = SharedMachine(plan.pmax, env)
    clause = plan.clause
    imin, imax = plan.loop_bounds[0]
    write = plan.write

    def phase(p: int) -> List[Tuple[str, Tuple[int, ...], float]]:
        writes: List[Tuple[str, Tuple[int, ...], float]] = []
        st = machine.stats[p]
        for i in range(imin, imax + 1):
            st.iterations += 1
            st.membership_tests += 1
            idx = (i,)
            if not write.replicated and write.proc_of(idx) != p:
                continue
            if clause.guard is not None and not clause.guard.eval(idx, machine.env):
                continue
            writes.append((write.name, clause.lhs.array_index(idx),
                           clause.rhs.eval(idx, machine.env)))
        return writes

    machine.run_phase(phase)
    return machine


def make_naive_node_program(plan: PlanIR, ctx: NodeContext) -> Generator:
    """Distributed §2.10 template, literal form: one full-range loop with
    the three membership cases tested per index."""

    def program() -> Generator:
        p = ctx.p
        clause = plan.clause
        imin, imax = plan.loop_bounds[0]
        write = plan.write

        # The paper's single All_p loop is split into a send sweep and an
        # update sweep for the same deadlock-freedom reason as the
        # optimized template; each sweep scans the FULL range and tests.
        for read in plan.reads:
            if read.replicated:
                continue
            for i in range(imin, imax + 1):
                ctx.stats.iterations += 1
                ctx.stats.membership_tests += 1
                idx = (i,)
                if read.proc_of(idx) != p:
                    continue  # not in Reside_p
                for q in plan.writers_of(idx):
                    ctx.stats.membership_tests += 1
                    if q != p:
                        ctx.send(q, (read.pos, idx),
                                 _read_value(ctx, read, idx))

        # Buffered writes: same //-independence discipline as the
        # optimized template (see dist_tmpl).
        pending = []
        for i in range(imin, imax + 1):
            ctx.stats.iterations += 1
            ctx.stats.membership_tests += 1
            idx = (i,)
            if not write.replicated and write.proc_of(idx) != p:
                continue  # not in Modify_p
            by_ref: Dict[int, float] = {}
            for read in plan.reads:
                ctx.stats.membership_tests += 1
                if read.replicated or read.proc_of(idx) == p:
                    by_ref[id(read.ref)] = _read_value(ctx, read, idx)
                else:
                    payload = yield ctx.recv(read.proc_of(idx),
                                             (read.pos, idx))
                    by_ref[id(read.ref)] = ctx.note_received(payload)
            if clause.guard is not None and not eval_fetched(
                clause.guard, idx, by_ref
            ):
                continue
            pending.append((write.local_of(idx),
                            eval_fetched(clause.rhs, idx, by_ref)))
        for slot, value in pending:
            ctx.update(write.name, slot, value)

        yield ctx.barrier()

    return program()


def run_distributed_naive(
    plan: PlanIR,
    env: Dict[str, np.ndarray],
) -> DistributedMachine:
    """Place, run, and return the machine for the naive distributed
    template."""
    if plan.clause.ordering is Ordering.SEQ:
        raise NotImplementedError("naive baseline implements // clauses")
    machine = DistributedMachine(plan.pmax)
    all_decomps = {acc.name: acc.dec for acc in plan.accesses()}
    for name, arr in env.items():
        if name in all_decomps:
            machine.place(name, arr, all_decomps[name])
    machine.run(lambda ctx: make_naive_node_program(plan, ctx))
    return machine
