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
from ..core.clause import Ordering
from ..machine.shared import SharedMachine
from ..pipeline.ir import PlanIR
from ..sets.membership import Work

__all__ = ["run_shared", "shared_phase"]

Index = Tuple[int, ...]


def shared_phase(plan: PlanIR, machine: SharedMachine):
    """Build the per-node phase function for one clause (any rank: loop
    and array indices are tuples)."""
    clause = plan.clause
    env = machine.env
    name = plan.write_name

    def phase(p: int) -> List[Tuple[str, Index, float]]:
        writes: List[Tuple[str, Index, float]] = []
        stats = machine.stats[p]
        work = Work()
        for idx in plan.modify_indices(p, work):
            stats.iterations += 1
            if clause.guard is not None and not clause.guard.eval(idx, env):
                continue
            writes.append((name, clause.lhs.array_index(idx),
                           clause.rhs.eval(idx, env)))
        stats.membership_tests += work.tests
        return writes

    return phase


def run_shared(
    plan: PlanIR,
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

    return dispatch(backend, "shared", plan, env, machine, scalar,
                    context="run_shared", strict=strict,
                    processes=processes, timeout=timeout)


def _run_shared_seq(plan: PlanIR, machine: SharedMachine) -> None:
    """``•`` ordering: a fully serialized DOACROSS schedule.

    Indices execute in global lexicographic order; each index is executed
    (and its cost charged to) its owner under owner-computes.  This is the
    degenerate limit of the paper's "more complicated orderings translate
    to DOACROSS-style synchronization patterns".
    """
    clause = plan.clause
    env = machine.env
    target = env[plan.write_name]
    tested = not plan.write.replicated
    with np.errstate(all="ignore"):  # the operator table's results
        for idx in clause.domain.bounds:  # lexicographic — the • order
            stats = machine.stats[plan.writers_of(idx)[0]]
            stats.iterations += 1
            if tested:
                stats.membership_tests += 1
            if clause.guard is not None and \
                    not clause.guard.eval(idx, env):
                continue
            target[clause.lhs.array_index(idx)] = clause.rhs.eval(idx, env)
            stats.local_updates += 1
