"""The clause verifier: run every analysis over one Plan IR.

``verify_ir`` is the engine behind the ``verify-plan`` pipeline pass and
the ``repro check`` CLI; ``verify_clause`` is the convenience entry that
compiles first (through the plan cache, so repeated checks of the same
clause reuse both the plan and its verdict).  ``annotate_deadlock``
cross-checks a runtime :class:`~repro.machine.scheduler.DeadlockError`
against the static verdict and appends the matching ``COMM``/``BND``
codes to its message.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.clause import Clause
from .bounds import analyze_bounds
from .comm import analyze_comm
from .diagnostics import DiagnosticReport
from .lint import analyze_lint
from .races import analyze_races

__all__ = ["verify_ir", "verify_clause", "annotate_deadlock"]

#: analysis order (report order is re-sorted by severity/code anyway)
_ANALYSES = (analyze_races, analyze_comm, analyze_bounds, analyze_lint)


def verify_ir(ir) -> DiagnosticReport:
    """Run all analyses over a compiled :class:`~repro.pipeline.ir.PlanIR`
    and cache the report on ``ir.diagnostics`` / ``ir.trace.diagnostics``."""
    report = DiagnosticReport(clause=ir.clause.name or "<anonymous>")
    for analyze in _ANALYSES:
        report.extend(analyze(ir))
    report.finish()
    ir.diagnostics = report
    ir.trace.diagnostics = report
    return report


def verify_clause(
    clause: Clause,
    decomps: Dict[str, object],
    *,
    successor: Optional[Clause] = None,
) -> DiagnosticReport:
    """Compile *clause* with verification enabled and return the report."""
    from ..pipeline import compile_plan

    ir = compile_plan(clause, decomps, successor=successor, verify=True)
    if ir.diagnostics is None:  # pragma: no cover - defensive
        return verify_ir(ir)
    return ir.diagnostics


def _schedule_codes(ir):
    """SCHED codes (and the certificate) of this clause's distributed
    schedule — the static message-matching proof re-run at the failure
    boundary, on the node kernels the simulator just ran.  ``(codes,
    cert)``; ``(None, None)`` when the clause has no kernels to check."""
    from ..runtime.lowering import MpLoweringError, _envelope
    from .schedule import check_schedule

    try:
        prog = _envelope(ir, "dist")
    except MpLoweringError:
        return None, None
    diags, cert = check_schedule([prog])
    return [d.code for d in diags if d.is_error], cert


def annotate_deadlock(err, ir):
    """Append the static verdict to a runtime deadlock, when one exists.

    The scheduler has no plan knowledge, so the cross-check lives at the
    run boundary: if the verifier flags the clause with ``COMM``/``BND``
    errors — or the static schedule check denies its certificate with a
    ``SCHED`` code — the deadlock message names them: the runtime failure
    was statically decidable.  A deadlock on a clause whose schedule
    certificate is *clean* is called out as contradicting the
    certificate.  The error object (``blocked``/``undelivered``
    included) is returned unchanged apart from its message."""
    try:
        report = ir.diagnostics if ir.diagnostics is not None \
            else verify_ir(ir)
        codes = [d.code for d in report.errors()
                 if d.code.startswith(("COMM", "BND"))]
        sched_codes, cert = _schedule_codes(ir)
        if sched_codes:
            codes += sched_codes
    except Exception:  # never let the cross-check mask the real failure
        return err
    if codes:
        seen = list(dict.fromkeys(codes))
        err.args = (
            f"{err.args[0]} [statically detectable: {', '.join(seen)} — "
            "run `repro check` on this program]",
        ) + err.args[1:]
    elif cert is not None and cert.ok:
        err.args = (
            f"{err.args[0]} [SCHED certificate: this schedule was "
            "statically certified deadlock-free; the deadlock "
            "contradicts the certificate — suspect runtime state, not "
            "message matching]",
        ) + err.args[1:]
    return err
