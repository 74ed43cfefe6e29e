"""Pass records and pipeline traces.

Every compilation routed through :class:`~repro.pipeline.manager.PassManager`
leaves behind a :class:`PipelineTrace`: one :class:`PassRecord` per pass,
carrying the pass name, the paper section it implements, wall time,
how many rewrites it applied, free-form notes, and before/after IR
snapshots (rendered to text when read).  The CLI dumps it
(``repro compile --explain``) and the §2.6-2.7 derivation chain
(:meth:`repro.core.rewrite.SPMDDerivation.as_trace`) reuses the same
record format, so one introspection surface covers both the executable
derivation and the production compile path.

This module is a leaf: it imports nothing from the rest of the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["PassRecord", "PipelineTrace"]


@dataclass
class PassRecord:
    """One pass application: what ran, what it did, what it cost."""

    name: str
    paper: str = ""
    wall_ms: float = 0.0
    rewrites: int = 0
    notes: List[str] = field(default_factory=list)
    #: the IR before and after the pass, as objects whose ``str()`` is
    #: its text (:class:`~repro.pipeline.ir.PlanFacts` renders on first read)
    snapshots: Tuple[object, object] = ("", "")

    before = property(lambda self: str(self.snapshots[0]))
    after = property(lambda self: str(self.snapshots[1]))

    def headline(self) -> str:
        head = f"{self.name:20s} rewrites={self.rewrites:<3d} {self.wall_ms:7.3f} ms"
        return f"{head}  {self.paper}" if self.paper else head


@dataclass
class PipelineTrace:
    """Ordered pass records for one compilation (or derivation)."""

    label: str = ""
    records: List[PassRecord] = field(default_factory=list)
    #: trace-level remarks outside any single pass (backend fallbacks, ..)
    notes: List[str] = field(default_factory=list)
    #: True when this compilation was served from the plan cache
    cache_hit: bool = False
    #: the structural plan-cache key, when one could be built
    cache_key: Optional[tuple] = None
    #: the static verifier's DiagnosticReport, when `verify-plan` ran
    diagnostics: Optional[object] = None

    def add(self, record: PassRecord) -> PassRecord:
        self.records.append(record)
        return record

    def note(self, message: str) -> None:
        """Attach a trace-level remark (shown by ``compile --explain``)."""
        self.notes.append(message)

    def names(self) -> List[str]:
        return [r.name for r in self.records]

    def record(self, name: str) -> Optional[PassRecord]:
        for r in self.records:
            if r.name == name:
                return r
        return None

    def total_rewrites(self) -> int:
        return sum(r.rewrites for r in self.records)

    def total_ms(self) -> float:
        return sum(r.wall_ms for r in self.records)

    def by_name(self) -> Dict[str, PassRecord]:
        return {r.name: r for r in self.records}

    def pretty(self, verbose: bool = False) -> str:
        """Human-readable ordered pass list with per-pass rewrite counts."""
        head = f"pipeline {self.label or '<anonymous>'}: " \
               f"{len(self.records)} passes, " \
               f"{self.total_rewrites()} rewrites, {self.total_ms():.3f} ms"
        if self.cache_hit:
            head += "  [plan-cache hit]"
        lines = [head]
        for k, r in enumerate(self.records, 1):
            lines.append(f"  {k}. {r.headline()}")
            for note in r.notes:
                lines.append(f"       {note}")
            if verbose and r.after and r.after != r.before:
                for ln in r.after.splitlines():
                    lines.append(f"       | {ln}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        if self.diagnostics is not None:
            for ln in self.diagnostics.pretty().splitlines():
                lines.append(f"  {ln}")
        return "\n".join(lines)

    def summary(self) -> Dict[str, object]:
        """JSON-friendly digest (used by benchmarks and reports)."""
        return {
            "label": self.label,
            "passes": [
                {
                    "name": r.name,
                    "paper": r.paper,
                    "wall_ms": r.wall_ms,
                    "rewrites": r.rewrites,
                    "notes": list(r.notes),
                }
                for r in self.records
            ],
            "total_rewrites": self.total_rewrites(),
            "total_ms": self.total_ms(),
            "notes": list(self.notes),
            "cache_hit": self.cache_hit,
            "diagnostics": (self.diagnostics.summary()
                            if self.diagnostics is not None else None),
        }
