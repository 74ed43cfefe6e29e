"""Structured diagnostics for the compile-time clause verifier.

Every finding of :mod:`repro.analysis` is a :class:`Diagnostic` with a
stable code from :data:`CODES` (``RACE001``, ``COMM001``, ...), a
severity, the clause and access it anchors to, per-processor witness
indices, and a fix hint.  :class:`DiagnosticReport` aggregates the
findings of one clause; it is what ``repro check`` prints (or emits as
JSON) and what the ``verify-plan`` pass caches on the
:class:`~repro.pipeline.trace.PipelineTrace`.

This module is a leaf: it imports nothing from the rest of the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

__all__ = ["Severity", "Diagnostic", "DiagnosticReport", "CODES"]


class Severity(Enum):
    """How bad a finding is.  ``--strict`` promotes warnings to errors;
    info-level findings never affect the exit status."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: the stable diagnostic catalogue (documented in docs/analysis.md)
CODES: Dict[str, str] = {
    "RACE001": "write/write overlap: two parameter instances of a // "
               "clause write the same element",
    "RACE002": "replicated write in a // clause: every processor writes "
               "every element (per-copy broadcast)",
    "RACE003": "loop-carried read/write dependence: a // instance reads "
               "an element another instance writes",
    "RACE004": "eliminated barrier contradicts a detected race inside "
               "the clause",
    "COMM001": "unmatched receive: a non-resident read element has no "
               "owner, so no send covers it",
    "COMM002": "message tag collision: two distinct sends share "
               "(src, dst, tag)",
    "COMM003": "mistargeted send: the receiving processor is computed "
               "from an out-of-range write element",
    "BND001": "read access image falls outside the declared array bounds",
    "BND002": "write access image falls outside the declared array "
              "bounds (those iterations are silently dropped)",
    "LINT001": "load imbalance: the largest |Modify_p| is more than "
               "twice the mean",
    "LINT002": "idle processors: some processors own no iteration of "
               "the clause",
    "LINT003": "scattered sequential chain: a recurrence under a "
               "scatter decomposition communicates on every step",
    "LINT004": "no Table I closed form: membership degrades to the "
               "naive full-range scan",
    "CHK001": "verification incomplete: the clause failed to compile or "
              "the enumeration fallback exceeded its budget",
    "PROG001": "uncertified fusion: an eliminated inter-clause barrier "
               "contradicts (or exceeds) the independent Bernstein/DILD "
               "dependence re-derivation",
    "PROG002": "uncertified elision: an elided redistribution boundary "
               "has element-to-processor layouts that do not agree",
    "PROG003": "uncertified pipelining: a pipelined time loop violates "
               "its own preconditions (surviving redistribution or "
               "incompatible swap pair)",
    "SCHED001": "unmatched message: a lowered (dst, src, pos) send key "
                "has no matching expected gather (or the lane counts "
                "disagree)",
    "SCHED002": "barrier placement: a fused clause boundary lets a node "
                "gather elements another node commits in the same phase",
    "SCHED003": "wait-for cycle: the node wait-for graph has a cycle "
                "through an unmatched message — the blocked wait "
                "propagates around the cycle (deadlock)",
    "KRN001": "kernel index out of bounds: a precomputed gather/scatter "
              "index array escapes its flat-array extent",
    "KRN002": "kernel source audit: the rendered kernel uses a name or "
              "operation outside the whitelist, or the fused and native "
              "renderings disagree on NaN semantics (min/max)",
    "KRN003": "dead guard: the clause guard can never fire over the "
              "loop domain (every iteration is filtered out)",
}

_RANK = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.INFO: 2}

#: caps keeping witness payloads readable
_MAX_WITNESS_PROCS = 4
_MAX_WITNESS_INDICES = 4


@dataclass
class Diagnostic:
    """One finding of the static verifier."""

    code: str
    message: str
    severity: Severity = Severity.ERROR
    clause: str = ""   #: clause name the finding belongs to
    access: str = ""   #: anchoring access label, e.g. ``write:A``/``read0:B``
    span: Optional[Tuple[int, int]] = None  #: clause loop bounds (1-D)
    #: per-processor witness loop indices (capped for readability)
    witnesses: Dict[int, List[int]] = field(default_factory=dict)
    hint: str = ""

    def __post_init__(self):
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")
        self.witnesses = {
            p: list(idx)[:_MAX_WITNESS_INDICES]
            for p, idx in sorted(self.witnesses.items())[:_MAX_WITNESS_PROCS]
        }

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    def sort_key(self) -> tuple:
        return (_RANK[self.severity], self.code, self.access, self.message)

    def headline(self) -> str:
        where = self.access or self.clause or "<clause>"
        return f"{self.code} [{self.severity.value}] {where}: {self.message}"

    def pretty(self) -> str:
        lines = [self.headline()]
        if self.span is not None:
            lines.append(f"    span: i in [{self.span[0]}, {self.span[1]}]")
        if self.witnesses:
            w = ", ".join(f"p{p}: {idx}" for p, idx in self.witnesses.items())
            lines.append(f"    witnesses: {w}")
        if self.hint:
            lines.append(f"    hint: {self.hint}")
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "clause": self.clause,
            "access": self.access,
            "span": list(self.span) if self.span is not None else None,
            "witnesses": {str(p): list(i) for p, i in self.witnesses.items()},
            "hint": self.hint,
        }


@dataclass
class DiagnosticReport:
    """All findings of the verifier for one clause, sorted
    deterministically (errors first, then by code)."""

    clause: str = ""
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def add(self, diag: Diagnostic) -> Diagnostic:
        if not diag.clause:
            diag.clause = self.clause
        self.diagnostics.append(diag)
        return diag

    def extend(self, diags: List[Diagnostic]) -> None:
        for d in diags:
            self.add(d)

    def finish(self) -> "DiagnosticReport":
        self.diagnostics.sort(key=Diagnostic.sort_key)
        return self

    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """No error-level findings (warnings and info may remain)."""
        return not self.errors()

    def has(self, code: str) -> bool:
        return any(d.code == code for d in self.diagnostics)

    def codes(self) -> List[str]:
        return sorted({d.code for d in self.diagnostics})

    def find(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def pretty(self) -> str:
        head = f"verify {self.clause or '<anonymous>'}: "
        if not self.diagnostics:
            return head + "clean"
        head += (f"{len(self.errors())} error(s), "
                 f"{len(self.warnings())} warning(s)")
        lines = [head]
        for d in self.diagnostics:
            for ln in d.pretty().splitlines():
                lines.append("  " + ln)
        return "\n".join(lines)

    def summary(self) -> Dict[str, object]:
        return {
            "clause": self.clause,
            "ok": self.ok,
            "errors": len(self.errors()),
            "warnings": len(self.warnings()),
            "diagnostics": [d.as_dict() for d in self.diagnostics],
        }
