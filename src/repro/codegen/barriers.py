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
``g`` is the key ``image(g, Modify_p)``, and an element has ONE writing
processor unless the write is replicated.  Hence a clause overlaps itself
iff *q*'s image under a read of the written array meets *p*'s image under
the write, ``p != q``; and two consecutive clauses conflict iff what *p*
writes in one meets what ``q != p`` touches in the other — flow and
output (``w1`` against ``r2``, ``w2``), anti (``w2`` against ``r1``).
Two progressions meet in one congruence, so a Block/Scatter/one-course
pair costs O(pmax²) integer operations whatever the array size; an
irregular key (multi-course BS(b), a modular access) is a sorted vector
filtered by the same ``meet`` — one mechanism, the all-slice pair being
its O(1) case.  (The element-by-element enumeration this replaced is the
oracle of ``tests/test_barriers.py``.)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.clause import Clause, Ordering, Program
from ..decomp.base import Decomposition
from ..machine.shared import SharedMachine
from ..pipeline.ir import PlanIR
from ..pipeline.region import Key, _ascending, image, klen, meet
from .plan import check_canonical

__all__ = [
    "has_cross_processor_overlap",
    "barrier_removable",
    "plan_barrier_removable",
    "plan_barriers",
    "run_program_shared",
]


class _Footprint:
    """What one clause touches, per processor, under owner-computes:
    read off *ir* when it is the plan being compiled, else off a
    front-only IR (the canonical-form contract, `substitute-views`,
    `optimize-membership`: no split, no lowering, no cache entry).
    Guards are reads that *may* happen: every guarded iteration counts
    for both its reads and its write."""

    def __init__(self, clause: Clause, decomps, ir: Optional[PlanIR] = None):
        check_canonical(clause, decomps)
        if ir is None:
            from ..pipeline.passes import OptimizeMembership, SubstituteViews

            ir = PlanIR(clause=clause, decomps=dict(decomps))
            SubstituteViews().run(ir)
            OptimizeMembership().run(ir)
        self.ir, self.write = ir, ir.write
        self.modify: List[Key] = [k[0] for k in ir.member_keys(ir.write)]
        self._touched: Dict[tuple, Key] = {}

    def touched(self, acc, p: int) -> Key:
        """``image(acc, Modify_p)``, ascending — made on first demand,
        so a pair that conflicts on its first processors never images
        the rest."""
        if (acc.pos, p) not in self._touched:
            self._touched[acc.pos, p] = _ascending(
                image(acc.funcs[0], self.modify[p]))
        return self._touched[acc.pos, p]

    def reads_of(self, name: str) -> list:
        return [acc for acc in self.ir.reads if acc.name == name]

    def crossed(self, other: "_Footprint", accs: list) -> bool:
        """Is an element this clause writes touched — through one of
        *other*'s accesses *accs* — by a processor that does not write
        it?"""
        pmax = len(self.modify)
        return any(
            klen(meet(self.touched(self.write, p), other.touched(acc, q)))
            for acc in accs
            for p in range(pmax)
            for q in range(len(other.modify))
            if (q >= pmax if self.write.replicated else q != p))

    def overlap(self) -> bool:
        if self.write.replicated and len(self.modify) > 1 \
                and any(map(klen, self.modify)):
            return True  # every processor writes every element
        return self.crossed(self, self.reads_of(self.write.name))


def has_cross_processor_overlap(
    clause: Clause, decomps: Dict[str, Decomposition]
) -> bool:
    """True when, within ONE clause, an element is written by one
    processor and read (or written) by a different one — i.e. the global
    double-buffer of the unfused template is load-bearing."""
    return _Footprint(clause, decomps).overlap()


def _removable(c1: Clause, c2: Clause, decomps, ir1: Optional[PlanIR]) -> bool:
    if c1.ordering is not Ordering.PAR or c2.ordering is not Ordering.PAR:
        return False
    f1 = _Footprint(c1, decomps, ir1)
    if f1.overlap():
        return False
    f2 = _Footprint(c2, decomps)
    after = f2.reads_of(f1.write.name)
    if f2.write.name == f1.write.name:
        after.append(f2.write)
    # flow (w1 ∩ r2), output (w1 ∩ w2), anti (r1 ∩ w2) across processors
    return not (f2.overlap() or f1.crossed(f2, after)
                or f2.crossed(f1, f1.reads_of(f2.write.name)))


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
