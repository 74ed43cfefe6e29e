"""Whole-program verification (the ``PROG`` family) and its cache.

The inter-clause passes of :mod:`repro.pipeline.program` *prove* things
— a fused boundary has no cross-processor dependence, an elided
redistribution preserves the layout contract, a pipelined time loop is
re-placement free.  This module re-derives each of those claims
independently and cross-checks the optimizer against the result, in the
spirit of translation validation, so a disagreement is an optimizer bug
surfaced at compile time rather than a wrong answer at run time.

``PROG001``
    Every pair of clauses inside a fused phase is re-checked for
    cross-processor flow/anti/output dependences (the Bernstein
    conditions, instance-owner granularity — the DILD step-independence
    relation) by :mod:`~repro.analysis.dependence`'s element walk.  A
    fusion it cannot certify is also an error: the pass claimed a proof
    the checker cannot reproduce.

``PROG002``
    Every elided redistribution boundary is re-checked on per-node owned
    keys (``owned_indices``, per axis for a grid): the producer-side and
    consumer-side decompositions must have every node own the same key
    on every axis (MDH-style (de)composition agreement, not structural
    ``cache_key`` equality) — O(P) key operations at any array size.

``PROG003``
    A pipelined time loop re-verifies its own preconditions: a repeat
    count above one, no surviving redistribution boundary, and
    placement agreement of every swap pair, on owned keys.

:func:`verify_program` aggregates these with the per-clause reports, the
static schedule check (:mod:`repro.analysis.schedule`) over the steps'
footprints — what their ``shared`` flavor would read and write; no node
kernel is built — and the generated-kernel sanitizer
(:mod:`repro.analysis.kernel_sanitizer`).  Certified-clean results are
cached in a bounded LRU keyed on the structural program key, so warm
compiles skip re-verification; ``compile --cache-stats`` reports it as
the ``verify`` line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..pipeline.cache import _StructuralCache
from ..pipeline.region import klen, meet, minus, prog, span
from .dependence import _diag, _Undecidable, verify_fusion
from .diagnostics import Diagnostic, DiagnosticReport, Severity
from .kernel_sanitizer import _check_footprint, sanitize_kernels
from .schedule import (PhaseBarrier, ScheduleCertificate, check_schedule,
                       phase_barriers)

__all__ = [
    "ProgramVerification",
    "VerifyCache",
    "verify_cache",
    "verify_program",
    "verify_cache_info",
    "clear_verify_cache",
]


# ---------------------------------------------------------------------------
# the result object
# ---------------------------------------------------------------------------

@dataclass
class ProgramVerification:
    """Everything one :func:`verify_program` run established."""

    #: program-level findings (PROG/SCHED/KRN + CHK notes)
    program: DiagnosticReport
    #: the per-clause verifier reports (RACE/COMM/BND/LINT), in order
    steps: List[DiagnosticReport] = field(default_factory=list)
    #: the static schedule proof over the lowered mp programs, when the
    #: program has an mp form (None = no mp form, noted on the report)
    certificate: Optional[ScheduleCertificate] = None
    #: per clause, the pre-commit barrier that proof certifies
    #: (:func:`~repro.analysis.schedule.phase_barriers`)
    phase: Tuple[PhaseBarrier, ...] = ()

    @property
    def ok(self) -> bool:
        return self.program.ok and all(r.ok for r in self.steps)

    def errors(self) -> List[Diagnostic]:
        out = self.program.errors()
        for r in self.steps:
            out += r.errors()
        return out

    def warnings(self) -> List[Diagnostic]:
        out = self.program.warnings()
        for r in self.steps:
            out += r.warnings()
        return out

    def pretty(self) -> str:
        lines = [r.pretty() for r in self.steps]
        lines.append(self.program.pretty())
        if self.certificate is not None:
            lines.append(f"schedule: {self.certificate.describe()}")
        return "\n".join(lines)

    def summary(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "errors": len(self.errors()),
            "warnings": len(self.warnings()),
            "program": self.program.summary(),
            "steps": [r.summary() for r in self.steps],
            "certificate": (self.certificate.describe()
                            if self.certificate is not None else None),
            "certified_deadlock_free": (self.certificate.ok
                                        if self.certificate is not None
                                        else None),
        }


# ---------------------------------------------------------------------------
# the verifier-report cache (the `verify` line of --cache-stats)
# ---------------------------------------------------------------------------

class VerifyCache(_StructuralCache):
    """Thread-safe LRU of :class:`ProgramVerification`, keyed on the
    structural program key — warm compiles skip re-verification."""

    DEFAULT_MAXSIZE = 64


#: the process-global verifier-report cache
verify_cache = VerifyCache()


def verify_cache_info() -> Dict[str, object]:
    return verify_cache.info()


def clear_verify_cache() -> None:
    verify_cache.clear()


# ---------------------------------------------------------------------------
# PROG002/003: placement agreement on owned keys
# ---------------------------------------------------------------------------

def _axes(dec) -> tuple:
    """The per-axis 1-D decompositions of *dec* (itself when 1-D)."""
    if dec is None:
        raise _Undecidable("no decomposition")
    return getattr(dec, "dims", (dec,))


def _owned(axes) -> Dict[int, tuple]:
    """Per processor, numbered row-major over the grid, its owned key on
    every axis; a replicated axis owns it whole, as processor -1."""
    cells = {0: ()}
    for ax in axes:
        per = [(-1, slice(0, ax.n))] if ax.is_replicated else [
            (c, ax.owned_indices(c)) for c in range(ax.pmax)]
        cells = {p * ax.pmax + c: keys + (key,)
                 for p, keys in cells.items() for c, key in per}
    return cells


def _first_outside(a: tuple, b: tuple) -> Optional[tuple]:
    """The row-major first element of the product of keys *a* outside
    the product *b*: per axis *d* where it may leave *b*, the first
    member of the ``meet`` before *d*, the ``minus`` at *d*, *a* after."""
    found = []
    for d in range(len(a)):
        parts = [meet(x, y) for x, y in zip(a[:d], b[:d])] \
            + [minus(a[d], b[d])] + list(a[d + 1:])
        if all(map(klen, parts)):
            found.append(tuple(span(k)[0] for k in parts))
    return min(found, default=None)


def _placement_witness(d1, d2):
    """First element, row-major, that two decompositions place on
    different processors, as ``(elem, p1, p2)``; ``None`` when every
    node owns the same key on every axis under both."""
    if d1 is d2 and d1 is not None:  # one object places one way
        return None
    ax1, ax2 = _axes(d1), _axes(d2)
    shape = tuple(a.n for a in ax1)
    if shape != tuple(a.n for a in ax2):
        return (0, math.prod(shape), math.prod(a.n for a in ax2))
    own2, empty = _owned(ax2), (prog(0, 1, 0),) * len(shape)
    found = [(e, p) for p, keys in _owned(ax1).items()
             if (e := _first_outside(keys, own2.get(p, empty))) is not None]
    if not found:
        return None
    idx, p1 = min(found)
    p2 = next((q for q, keys in own2.items() if all(
        klen(meet(k, prog(i, 1, 1))) for k, i in zip(keys, idx))), None)
    # row-major: the sum of index x stride
    return (sum(int(i) * math.prod(shape[k + 1:]) for k, i in enumerate(idx)),
            p1, p2)


def _resolve_boundary(pir, label):
    """Producer/consumer steps and the swap rename of one elision label
    (``"k->k+1"`` between clauses, ``"step"`` for the wrap-around)."""
    if label == "step":
        rename = {}
        for a, b in pir.swap:
            rename[a], rename[b] = b, a
        return pir.steps[-1], pir.steps[0], rename
    k = int(str(label).split("->")[0])
    return pir.steps[k], pir.steps[k + 1], {}


def _verify_elisions(pir, report: DiagnosticReport) -> int:
    certified = 0
    for label, name in pir.elided:
        try:
            producer, consumer, rename = _resolve_boundary(pir, label)
        except (ValueError, IndexError):
            report.add(_diag(
                "PROG002",
                f"elision record ({label!r}, {name!r}) names no valid "
                "clause boundary",
                hint="the elide-redistribution pass recorded a boundary "
                     "outside the program"))
            continue
        src = rename.get(name, name)
        d1 = producer.decomps.get(src)
        d2 = consumer.decomps.get(name)
        via = f" (via swap {src}->{name})" if src != name else ""
        try:
            hit = _placement_witness(d1, d2)
        except _Undecidable as why:
            report.add(_diag(
                "CHK001",
                f"elided boundary {label}: layout agreement of {name!r} "
                f"not decidable ({why})",
                severity=Severity.WARNING, access=f"array:{name}"))
            continue
        if hit is None:
            certified += 1
            continue
        e, p1, p2 = hit
        report.add(_diag(
            "PROG002",
            f"elided boundary {label}: {name!r}{via} is NOT re-placement "
            f"free — element {e} lives on p{p1} for the producer but "
            f"p{p2} for the consumer",
            access=f"array:{name}", witnesses={p1: [e], p2: [e]},
            hint="the elide-redistribution pass and the element-wise "
                 "layout re-derivation disagree: optimizer bug"))
    return certified


def _verify_pipeline(pir, report: DiagnosticReport) -> None:
    if not pir.pipelined:
        return
    union: Dict[str, object] = {}
    for st in pir.steps:
        for name, dec in st.decomps.items():
            union.setdefault(name, dec)
    if pir.repeat <= 1:
        report.add(_diag(
            "PROG003",
            f"program marked pipelined with repeat={pir.repeat}: there "
            "is no time loop to pipeline"))
    if pir.redistributions:
        label, name, reason = pir.redistributions[0]
        report.add(_diag(
            "PROG003",
            f"program marked pipelined but {len(pir.redistributions)} "
            f"redistribution boundary(ies) survive elision (first: "
            f"{name!r} at {label}: {reason}) — the step is not "
            "re-placement free",
            access=f"array:{name}"))
    for a, b in pir.swap:
        da, db = union.get(a), union.get(b)
        try:
            hit = _placement_witness(da, db)
        except _Undecidable as why:
            report.add(_diag(
                "PROG003",
                f"swap pair ({a},{b}) of a pipelined loop cannot be "
                f"certified placement-compatible ({why})"))
            continue
        if hit is not None:
            e, p1, p2 = hit
            report.add(_diag(
                "PROG003",
                f"swap pair ({a},{b}) of a pipelined loop is not "
                f"placement-compatible: element {e} lives on p{p1} in "
                f"{a!r} but p{p2} in {b!r} — the zero-copy name exchange "
                "moves data across processors",
                witnesses={max(p1, 0): [e]}))


# ---------------------------------------------------------------------------
# schedule + kernels over one program
# ---------------------------------------------------------------------------

def _verify_schedule(pir, report: DiagnosticReport):
    """The static schedule check over every step's footprint (what the
    ``union`` kernels ``run_program_mp`` runs would touch), building no
    node kernel: ``(certificate, phase barriers)``, or ``(None, ())``
    and the lowering's reason when a step has no mp form."""
    for st in pir.steps:
        why = "plan carries no fused kernels (lower-kernels fallback)"
        if st.ir.kernels is not None:
            try:
                found = _check_footprint(st.ir)
                why = found and f"KRN001: {found[0].message}"
            except Exception as e:  # enumerator/placement surprises
                why = f"{type(e).__name__}: {e}"
        if why:
            report.add(_diag(
                "CHK001",
                f"schedule of clause {st.index} ({st.name}) unverified: "
                f"no mp form ({why})",
                severity=Severity.INFO, clause=st.name))
            return None, ()
    fps = [st.ir.footprint() for st in pir.steps]
    flags = pir.barrier_flags()
    phase = phase_barriers(fps, flags)
    diags, cert = check_schedule(fps, flags=flags,
                                 phase=[b.kept for b in phase],
                                 repeat=pir.repeat)
    report.extend(diags)
    return cert, phase


def _verify_kernels(pir, report: DiagnosticReport) -> None:
    for st in pir.steps:
        for d in sanitize_kernels(st.ir):
            if not d.clause:
                d.clause = st.name
            report.add(d)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _step_report(st) -> DiagnosticReport:
    ir = st.ir
    if ir.diagnostics is None:
        from .verifier import verify_ir

        return verify_ir(ir)
    return ir.diagnostics


def verify_program(
    pir,
    *,
    schedule: bool = True,
    sanitize: bool = True,
    use_cache: bool = True,
) -> ProgramVerification:
    """Verify one compiled :class:`~repro.pipeline.program.ProgramIR`.

    Re-derives the optimizer's inter-clause claims (PROG001-PROG003),
    statically checks the message schedule on the steps' footprints
    (SCHED001-SCHED003, yielding a :class:`ScheduleCertificate`), audits
    the generated kernels (KRN001-KRN003), and bundles the per-clause
    reports.

    Certified results are cached on ``pir.cache_key``; a warm compile of
    a structurally identical program skips re-verification entirely."""
    key = None
    if use_cache and verify_cache.enabled and pir.cache_key is not None:
        key = (pir.cache_key, bool(schedule), bool(sanitize))
        cached = verify_cache.lookup(key)
        if cached is not None:
            pir.phase = cached.phase
            _trace_verification(pir, cached, cache_hit=True)
            return cached
    report = DiagnosticReport(clause="<program>")
    fused_ok = verify_fusion(pir, report)
    elided_ok = _verify_elisions(pir, report)
    _verify_pipeline(pir, report)
    cert, phase = _verify_schedule(pir, report) if schedule else (None, ())
    if sanitize:
        _verify_kernels(pir, report)
    report.finish()
    verification = ProgramVerification(
        program=report,
        steps=[_step_report(st) for st in pir.steps],
        certificate=cert,
        phase=phase,
    )
    pir.phase = phase
    verification._certified_pairs = fused_ok
    verification._certified_elisions = elided_ok
    if key is not None:
        verify_cache.store(key, verification)
    _trace_verification(pir, verification, cache_hit=False)
    return verification


def _trace_verification(pir, verification: ProgramVerification,
                        cache_hit: bool) -> None:
    """Record the verification on the program trace (``compile
    --explain`` shows it as the ``verify-program`` pass)."""
    from ..pipeline.trace import PassRecord

    if pir.trace is None or pir.trace.record("verify-program") is not None:
        return
    rec = PassRecord(name="verify-program",
                     paper="Bernstein / DILD / MDH cross-checks")
    codes = sorted({d.code for d in verification.program.diagnostics})
    rec.notes.append(
        f"program verdict: {'clean' if verification.ok else 'FLAGGED'}"
        + (f" ({', '.join(codes)})" if codes else "")
        + ("  [verify-cache hit]" if cache_hit else ""))
    pairs = getattr(verification, "_certified_pairs", 0)
    if pairs:
        rec.notes.append(f"{pairs} fused clause pair(s) independently "
                         "re-certified (Bernstein/DILD)")
    elisions = getattr(verification, "_certified_elisions", 0)
    if elisions:
        rec.notes.append(f"{elisions} elided boundary(ies) re-certified "
                         "on owned keys (MDH layout agreement)")
    if verification.certificate is not None:
        rec.notes.append(verification.certificate.describe())
    rec.rewrites = 0
    pir.trace.add(rec)
