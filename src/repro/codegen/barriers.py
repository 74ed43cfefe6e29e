"""Barrier elimination between clauses (paper §2.9, footnote 1).

"The expensive barrier synchronization can in many cases be eliminated or
merged with other synchronizations in intra-statement optimizations."

A barrier between two ``//`` clauses is needed exactly when some datum
flows between *different processors* across the phase boundary — or when
fusing would expose a cross-processor read/write overlap *within* one of
the clauses (the unfused template hides intra-clause overlap behind the
global double-buffer).  With the owner-computes rule all of this is
decidable at compile time from the decompositions and access functions,
and this module proves it in the key algebra of
:mod:`repro.pipeline.region`, never by walking elements: processor *p*
runs exactly ``Modify_p`` (a Table I key; the whole domain on every
processor for a replicated write), so what it touches through an access
``g`` is the key ``image(g, Modify_p)`` — its row of the plan's
:meth:`~repro.pipeline.ir.PlanIR.footprint` — and an element has ONE writing
processor unless the write is replicated.  Hence a clause overlaps itself
iff *q*'s image under a read of the written array meets *p*'s image under
the write, ``p != q``; and two consecutive clauses conflict iff what *p*
writes in one meets what ``q != p`` touches in the other — flow and
output (``w1`` against ``r2``, ``w2``), anti (``w2`` against ``r1``).
Two progressions meet in one congruence, so a Block/Scatter/one-course
pair — or a pair of multi-course BS(b) two-level keys, one congruence
per level — costs O(pmax²) integer operations whatever the array size;
an irregular key (a modular access) is a sorted vector filtered by the
same ``meet`` — one mechanism, the all-slice pair being its O(1) case.
(The element-by-element enumeration this replaced is the oracle of
``tests/test_barriers.py``.)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.clause import Clause, Ordering, Program
from ..decomp.base import Decomposition
from ..machine.shared import SharedMachine
from ..pipeline.ir import PlanIR
from ..pipeline.region import overlap
from .plan import check_canonical

__all__ = [
    "has_cross_processor_overlap",
    "barrier_removable",
    "plan_barrier_removable",
    "plan_barriers",
    "run_program_shared",
]


def _front(clause: Clause, decomps, ir: Optional[PlanIR] = None) -> PlanIR:
    """*ir* when it is the plan being compiled, else a front-only IR of
    *clause* (the canonical-form contract, `substitute-views`,
    `optimize-membership`: no split, no lowering, no cache entry)."""
    check_canonical(clause, decomps)
    if ir is None:
        from ..pipeline.passes import OptimizeMembership, SubstituteViews

        ir = PlanIR(clause=clause, decomps=dict(decomps))
        SubstituteViews().run(ir)
        OptimizeMembership().run(ir)
    return ir


def _crossed(w: PlanIR, r: PlanIR, name: str, write_too=False) -> bool:
    """Is an element plan *w* writes touched — through *r*'s reads of
    array *name*, and its write when *write_too* — by a processor that
    does not write it?  What a processor touches is its row of the
    plans' :meth:`~repro.pipeline.ir.PlanIR.footprint`; guards are
    reads that *may* happen: every guarded iteration counts."""
    pmax, replicated = w.pmax, w.write.replicated
    return any(
        overlap(write, keys) is not None
        for p, (write, _) in enumerate(w.footprint().per_node) if write
        for q, (own, reads) in enumerate(r.footprint().per_node)
        if (q >= pmax if replicated else q != p)
        for keys in [k for _, a, k in reads if a == name]
        + ([own] if write_too and own else []))


def _overlaps(ir: PlanIR) -> bool:
    """Does an element of one processor's write meet another's access
    of the written array within the clause?"""
    if ir.write.replicated and ir.pmax > 1 \
            and any(w for w, _ in ir.footprint().per_node):
        return True  # every processor writes every element
    return _crossed(ir, ir, ir.write.name)


def has_cross_processor_overlap(
    clause: Clause, decomps: Dict[str, Decomposition]
) -> bool:
    """True when, within ONE clause, an element is written by one
    processor and read (or written) by a different one — i.e. the global
    double-buffer of the unfused template is load-bearing."""
    return _overlaps(_front(clause, decomps))


def _removable(c1: Clause, c2: Clause, decomps, ir1: Optional[PlanIR]) -> bool:
    if c1.ordering is not Ordering.PAR or c2.ordering is not Ordering.PAR:
        return False
    ir1 = _front(c1, decomps, ir1)
    if _overlaps(ir1):
        return False
    ir2 = _front(c2, decomps)
    w1, w2 = ir1.write.name, ir2.write.name
    # flow (w1 ∩ r2), output (w1 ∩ w2), anti (r1 ∩ w2) across processors
    return not (_overlaps(ir2) or _crossed(ir1, ir2, w1, w2 == w1)
                or _crossed(ir2, ir1, w2))


def barrier_removable(
    c1: Clause, c2: Clause, decomps: Dict[str, Decomposition]
) -> bool:
    """Can the barrier between *c1* and *c2* be eliminated?"""
    return _removable(c1, c2, decomps, None)


def plan_barrier_removable(ir: PlanIR) -> bool:
    """:func:`barrier_removable` for a plan on its way through the
    pipeline (past `optimize-membership`) and its successor: the plan's
    own membership keys serve, only the successor gets a front-only IR."""
    return _removable(ir.clause, ir.successor, ir.decomps, ir)


def plan_barriers(
    program: Program, decomps: Dict[str, Decomposition]
) -> List[bool]:
    """``flags[k]`` — is a barrier needed after clause ``k``?  The final
    barrier (program end) is always kept.

    Decided by the pipeline's `eliminate-barriers` pass: each clause is
    compiled with its successor so the decision lands in the pass trace."""
    from ..pipeline import compile_plan

    clauses = program.clauses
    return [compile_plan(c1, decomps, successor=c2).barrier_needed
            for c1, c2 in zip(clauses, clauses[1:])] + [True]


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

    The full backend registry applies, exactly as for single clauses.
    """
    from ..pipeline import compile_program, run_program

    pir = compile_program(program, decomps,
                          eliminate_barriers=eliminate_barriers)
    pmax = max(d.pmax for d in decomps.values())
    machine = SharedMachine(pmax, env)
    return run_program(pir, env, backend=backend, strict=strict,
                       processes=processes, timeout=timeout,
                       machine=machine)
