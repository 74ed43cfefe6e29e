"""Shared-memory SPMD template (paper Section 2.9).

    p := my_node;
    forall i in Modify_p do
        A[f(i)] := Expr(B[g(i)]);
    od;
    barrier;

Every processor addresses the shared arrays directly; only the iteration
space is partitioned (by the owner-computes membership set).  The write
buffer + phase barrier of :class:`~repro.machine.shared.SharedMachine`
gives all nodes the pre-state, matching the ``//`` clause semantics.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..backends import dispatch
from ..core.clause import Clause, Ordering
from ..machine.shared import SharedMachine
from ..sets.membership import Work
from .plan import SPMDPlan

__all__ = ["run_shared", "shared_phase"]


def shared_phase(plan: SPMDPlan, machine: SharedMachine):
    """Build the per-node phase function for one clause."""
    clause = plan.clause
    env = machine.env

    def phase(p: int) -> List[Tuple[str, int, float]]:
        writes: List[Tuple[str, int, float]] = []
        work = Work()
        for i in plan.modify_indices(p, work):
            machine.stats[p].iterations += 1
            idx = (i,)
            if clause.guard is not None and not clause.guard.eval(idx, env):
                continue
            ai = clause.lhs.array_index(idx)[0]
            writes.append((clause.lhs.name, ai, clause.rhs.eval(idx, env)))
        machine.stats[p].membership_tests += work.tests
        return writes

    return phase


def run_shared(
    plan: SPMDPlan,
    env: Dict[str, np.ndarray],
    machine: Optional[SharedMachine] = None,
    backend: str = "scalar",
    strict: bool = False,
    processes: Optional[int] = None,
    timeout: Optional[float] = None,
) -> SharedMachine:
    """Execute one clause on a shared-memory machine; returns the machine
    (its ``env`` holds the post-state, its ``stats`` the counters).

    *backend* names a tier of :data:`repro.backends.TIERS`; the table in
    ``docs/execution.md`` ("Backend tiers") says what each needs, what it
    falls to and the trace note each hop leaves.  • clauses are a serial
    chain and end on the scalar path under every backend.  *strict*
    makes the kernel and real-process tiers refuse clauses the static
    verifier flagged; *processes*/*timeout* apply to ``mp``/``mpi``.
    """
    if machine is None:
        machine = SharedMachine(plan.pmax, env)

    def scalar() -> SharedMachine:
        if plan.clause.ordering is Ordering.SEQ:
            _run_shared_seq(plan, machine)
        else:
            machine.run_phase(shared_phase(plan, machine))
        return machine

    return dispatch(backend, "shared", plan.ir, env, machine, scalar,
                    context="run_shared", strict=strict,
                    processes=processes, timeout=timeout)


def _run_shared_seq(plan: SPMDPlan, machine: SharedMachine) -> None:
    """``•`` ordering: a fully serialized DOACROSS schedule.

    Indices execute in global lexicographic order; each index is executed
    (and its cost charged to) its owner under owner-computes.  This is the
    degenerate limit of the paper's "more complicated orderings translate
    to DOACROSS-style synchronization patterns".
    """
    clause = plan.clause
    env = machine.env
    for i in range(plan.imin, plan.imax + 1):
        owners = plan.writers_of(i)
        p = owners[0]
        machine.stats[p].iterations += 1
        if not plan.write_replicated:
            machine.stats[p].membership_tests += 1
        idx = (i,)
        if clause.guard is not None and not clause.guard.eval(idx, env):
            continue
        ai = clause.lhs.array_index(idx)[0]
        env[clause.lhs.name][ai] = clause.rhs.eval(idx, env)
        machine.stats[p].local_updates += 1
