"""Compile-time verification (static analysis over the Plan/Program IR).

The paper's central claim — ``Modify_p`` / ``Reside_p`` are closed-form
sets computable at compile time (§3, Table I) — makes correctness
questions about generated SPMD programs *decidable* with the same
key algebra (:mod:`repro.pipeline.region`) the compiler already uses:

* :mod:`~repro.analysis.races`  — Bernstein conditions on ``//`` clauses
* :mod:`~repro.analysis.comm`   — every remote read matched by a send
* :mod:`~repro.analysis.bounds` — access images inside declared arrays
* :mod:`~repro.analysis.lint`   — decomposition quality warnings

and, at whole-program granularity (the ``PROG``/``SCHED``/``KRN``
families):

* :mod:`~repro.analysis.program_verifier` — independent re-derivation of
  every fuse/elide/pipeline decision over a :class:`ProgramIR`, on keys
  (:mod:`~repro.analysis.dependence`: the PROG001 element walk)
* :mod:`~repro.analysis.schedule` — static message matching and
  deadlock-freedom certification over the lowered mp schedule or the
  plans' footprints
* :mod:`~repro.analysis.kernel_sanitizer` — generated-kernel audit
  (index bounds, source whitelist, dead guards)

Findings are :class:`Diagnostic` records with stable codes (catalogued
in ``docs/analysis.md``), aggregated per clause into a
:class:`DiagnosticReport`.  The pipeline exposes the verifier as the
optional ``verify-plan`` pass (``compile_plan(..., verify=True)``), the
CLI as ``repro check``.
"""

from .bounds import analyze_bounds
from .comm import analyze_comm
from .diagnostics import CODES, Diagnostic, DiagnosticReport, Severity
from .kernel_sanitizer import (audit_kernel_source, check_kernels_strict,
                               sanitize_kernels)
from .lint import analyze_lint
from .program_verifier import (ProgramVerification, clear_verify_cache,
                               verify_cache_info, verify_program)
from .races import analyze_races
from .schedule import (PhaseBarrier, ScheduleCertificate, certificate_for,
                       check_schedule, cite_certificate, phase_barriers)
from .verifier import annotate_deadlock, verify_clause, verify_ir

__all__ = [
    "CODES",
    "Diagnostic",
    "DiagnosticReport",
    "Severity",
    "analyze_races",
    "analyze_comm",
    "analyze_bounds",
    "analyze_lint",
    "verify_ir",
    "verify_clause",
    "annotate_deadlock",
    "sanitize_kernels",
    "audit_kernel_source",
    "check_kernels_strict",
    "PhaseBarrier",
    "ScheduleCertificate",
    "check_schedule",
    "certificate_for",
    "phase_barriers",
    "cite_certificate",
    "ProgramVerification",
    "verify_program",
    "verify_cache_info",
    "clear_verify_cache",
]
