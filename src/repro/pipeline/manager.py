"""PassManager: run a pass list over a PlanIR, recording a trace.

Each pass application is timed (wall clock), its rewrite count and notes
captured, and before/after IR snapshots stored — the compiler's flight
recorder, dumped by ``repro compile --explain``.
"""

from __future__ import annotations

from time import perf_counter
from typing import List, Optional, Sequence

from .ir import PlanIR
from .passes import Pass, default_passes
from .trace import PassRecord

__all__ = ["PassManager"]


class PassManager:
    """Runs named passes in order over one :class:`PlanIR`."""

    def __init__(self, passes: Optional[Sequence[Pass]] = None):
        self.passes: List[Pass] = (
            list(passes) if passes is not None else default_passes()
        )

    def run(self, ir: PlanIR) -> PlanIR:
        if not ir.trace.label:
            ir.trace.label = f"clause {ir.clause.name!r}"
        after = ir.describe()
        for ps in self.passes:
            before = after  # one render per boundary
            t0 = perf_counter()
            rewrites, notes = ps.run(ir)
            wall_ms = (perf_counter() - t0) * 1e3
            after = ir.describe()
            ir.trace.add(PassRecord(
                name=ps.name,
                paper=ps.paper,
                wall_ms=wall_ms,
                rewrites=rewrites,
                notes=list(notes),
                before=before,
                after=after,
            ))
        return ir
