"""Barrier elimination between clauses (paper §2.9, footnote 1).

"The expensive barrier synchronization can in many cases be eliminated or
merged with other synchronizations in intra-statement optimizations."

A barrier between two ``//`` clauses is needed exactly when some datum
flows between *different processors* across the phase boundary — or when
fusing would expose a cross-processor read/write overlap *within* one of
the clauses (the unfused template hides intra-clause overlap behind the
global double-buffer).  With the owner-computes rule all of this is
decidable at compile time from the decompositions and access functions;
this module decides it by (exact, O(n)) enumeration of the access maps.

``run_program_shared`` then executes a multi-clause program on the
shared-memory machine, fusing phases whose separating barrier was proven
removable, and reports how many barriers remain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..core.clause import Clause, Ordering, Program
from ..decomp.base import Decomposition
from ..machine.shared import SharedMachine
from .plan import compile_clause

__all__ = [
    "AccessMaps",
    "clause_access_maps",
    "has_cross_processor_overlap",
    "barrier_removable",
    "plan_barriers",
    "run_program_shared",
]

Elem = Tuple[str, int]


@dataclass
class AccessMaps:
    """Which (array, element) each clause touches, and from which
    processor (owner of the touching iteration)."""

    writes: Dict[Elem, Set[int]]
    reads: Dict[Elem, Set[int]]


def clause_access_maps(
    clause: Clause, decomps: Dict[str, Decomposition]
) -> AccessMaps:
    """Exact access maps of a 1-D clause under owner-computes.

    Guards are treated as reads that *may* happen (conservative: the
    guard value is unknown at compile time, so every guarded iteration
    counts for both its reads and its write).
    """
    plan = compile_clause(clause, decomps)
    writes: Dict[Elem, Set[int]] = {}
    reads: Dict[Elem, Set[int]] = {}
    imin, imax = plan.loop_bounds[0]
    for i in range(imin, imax + 1):
        owners = plan.writers_of((i,))
        w_elem = (plan.write_name, plan.write.funcs[0](i))
        writes.setdefault(w_elem, set()).update(owners)
        for read in plan.reads:
            r_elem = (read.name, read.funcs[0](i))
            reads.setdefault(r_elem, set()).update(owners)
    return AccessMaps(writes, reads)


def has_cross_processor_overlap(
    clause: Clause, decomps: Dict[str, Decomposition]
) -> bool:
    """True when, within ONE clause, an element is written by one
    processor and read (or written) by a different one — i.e. the global
    double-buffer of the unfused template is load-bearing.

    Fast path: the static analyzer's interference certificate.  A
    certified clause (non-replicated write, no read of the written
    array) provably has singleton writer sets and disjoint read/write
    element keys, so the enumeration below would always return False —
    skip it."""
    from ..analysis import certified_independent

    if certified_independent(clause, decomps):
        return False
    maps = clause_access_maps(clause, decomps)
    for elem, writers in maps.writes.items():
        if len(writers) > 1:
            return True
        readers = maps.reads.get(elem)
        if readers and readers - writers:
            return True
    return False


def _phase_conflict(m1: AccessMaps, m2: AccessMaps) -> bool:
    """Cross-processor dependence between two consecutive clauses:
    flow (w1 ∩ r2), anti (r1 ∩ w2), or output (w1 ∩ w2) on different
    processors."""
    for elem, writers in m1.writes.items():
        for other in (m2.reads.get(elem), m2.writes.get(elem)):
            if other and other - writers:
                return True
    for elem, writers2 in m2.writes.items():
        readers1 = m1.reads.get(elem)
        if readers1 and readers1 - writers2:
            return True
    return False


def barrier_removable(
    c1: Clause, c2: Clause, decomps: Dict[str, Decomposition]
) -> bool:
    """Can the barrier between *c1* and *c2* be eliminated?"""
    if c1.ordering is not Ordering.PAR or c2.ordering is not Ordering.PAR:
        return False
    if has_cross_processor_overlap(c1, decomps):
        return False
    if has_cross_processor_overlap(c2, decomps):
        return False
    return not _phase_conflict(
        clause_access_maps(c1, decomps), clause_access_maps(c2, decomps)
    )


def plan_barriers(
    program: Program, decomps: Dict[str, Decomposition]
) -> List[bool]:
    """``flags[k]`` — is a barrier needed after clause ``k``?  The final
    barrier (program end) is always kept.

    Decided by the pipeline's `eliminate-barriers` pass: each clause is
    compiled with its successor so the decision lands in the pass trace."""
    from ..pipeline import compile_plan

    clauses = program.clauses
    flags: List[bool] = []
    for c1, c2 in zip(clauses, clauses[1:]):
        ir = compile_plan(c1, decomps, successor=c2)
        flags.append(ir.barrier_needed)
    flags.append(True)
    return flags


def run_program_shared(
    program: Program,
    decomps: Dict[str, Decomposition],
    env: Dict[str, np.ndarray],
    eliminate_barriers: bool = True,
    backend: str = "scalar",
    strict: bool = False,
    processes: Optional[int] = None,
    timeout: Optional[float] = None,
) -> Tuple[SharedMachine, int]:
    """Execute a multi-clause program on the shared-memory machine.

    Thin legacy wrapper: the program is compiled through
    :func:`repro.pipeline.compile_program` (whose `fuse-clauses` pass
    groups consecutive clauses with removable barriers) and executed by
    :func:`repro.pipeline.run_program`.  Returns the machine and the
    number of barriers actually executed.

    The full backend registry applies, exactly as for single clauses
    (``overlap`` degrades to the vector backend with a trace note).
    """
    from ..pipeline import compile_program, run_program

    pir = compile_program(program, decomps,
                          eliminate_barriers=eliminate_barriers)
    pmax = max(d.pmax for d in decomps.values())
    machine = SharedMachine(pmax, env)
    return run_program(pir, env, backend=backend, strict=strict,
                       processes=processes, timeout=timeout,
                       machine=machine)
