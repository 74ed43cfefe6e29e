"""Whole-program verification (the ``PROG`` family) and its cache.

The inter-clause passes of :mod:`repro.pipeline.program` *prove* things
— a fused boundary has no cross-processor dependence, an elided
redistribution preserves the layout contract, a pipelined time loop is
re-placement free.  This module re-derives each of those claims
independently and cross-checks the optimizer against the result, in the
spirit of translation validation: the passes use the region key
algebra, the verifier enumerates the element relation directly
(as NumPy arrays, budget-bounded), so a disagreement is an optimizer bug
surfaced at compile time rather than a wrong answer at run time.

``PROG001``
    Every pair of clauses inside a fused phase is re-checked for
    cross-processor flow/anti/output dependences (the Bernstein
    conditions, instance-owner granularity — the DILD step-independence
    relation).  A fusion the verifier cannot certify — budget exceeded,
    opaque accesses — is also an error: the pass claimed a proof the
    checker cannot reproduce.

``PROG002``
    Every elided redistribution boundary is re-checked element-wise:
    the producer-side and consumer-side decompositions must map every
    element to the same processor (MDH-style (de)composition agreement,
    not just structural ``cache_key`` equality).

``PROG003``
    A pipelined time loop re-verifies its own preconditions: a repeat
    count above one, no surviving redistribution boundary, and
    element-wise placement agreement of every swap pair.

:func:`verify_program` aggregates these with the per-clause reports, the
static schedule check (:mod:`repro.analysis.schedule`) over the lowered
mp programs, and the generated-kernel sanitizer
(:mod:`repro.analysis.kernel_sanitizer`).  Certified-clean results are
cached in a bounded LRU keyed on the structural program key, so warm
compiles skip re-verification; ``compile --cache-stats`` reports it as
the ``verify`` line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.ifunc import apply_ifunc
from ..pipeline.cache import _StructuralCache
from .diagnostics import Diagnostic, DiagnosticReport, Severity
from .kernel_sanitizer import sanitize_kernels
from .schedule import (PhaseBarrier, ScheduleCertificate, check_schedule,
                       phase_barriers)
from .support import ENUM_BUDGET

__all__ = [
    "ProgramVerification",
    "VerifyCache",
    "verify_cache",
    "verify_program",
    "verify_cache_info",
    "clear_verify_cache",
]


class _Undecidable(Exception):
    """The independent re-derivation cannot decide (reason in args)."""


def _diag(code, message, **kw):
    kw.setdefault("severity", Severity.ERROR)
    return Diagnostic(code=code, message=message, **kw)


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
# PROG001: independent Bernstein/DILD dependence re-derivation
# ---------------------------------------------------------------------------

def _instances(ir) -> Tuple[np.ndarray, np.ndarray]:
    """``(i, owner)`` per parameter instance of a 1-D clause — the
    executing processor under owner-computes is the write element's
    owner."""
    if len(ir.loop_bounds) != 1:
        raise _Undecidable("clause is not 1-D")
    w = ir.write
    if w is None or w.replicated or not w.funcs:
        raise _Undecidable("write access has no placed closed form")
    lo, hi = ir.loop_bounds[0]
    if hi - lo + 1 > ENUM_BUDGET:
        raise _Undecidable("domain exceeds the enumeration budget")
    i = np.arange(lo, hi + 1, dtype=np.int64)
    try:
        e = apply_ifunc(w.funcs[0], i)
        owner = np.asarray(w.dec.proc_array(e), dtype=np.int64)
    except Exception as exc:
        raise _Undecidable(f"owner derivation failed: {exc}") from exc
    return i, owner


def _access_elems(ir, acc, i: np.ndarray) -> np.ndarray:
    if acc.replicated:
        raise _Undecidable(f"access of {acc.name!r} is replicated")
    if not acc.funcs or len(acc.funcs) != 1:
        raise _Undecidable(f"access of {acc.name!r} has no rank-1 "
                           "closed form")
    try:
        return apply_ifunc(acc.funcs[0], i)
    except Exception as exc:
        raise _Undecidable(
            f"index function of {acc.name!r} is opaque: {exc}") from exc


def _cross_witness(e_a, o_a, i_a, e_b, o_b, i_b):
    """First ``(ia, ib, elem, pa, pb)`` with ``e_a[x] == e_b[y]`` and
    ``o_a[x] != o_b[y]`` — a cross-processor element sharing between the
    two instance sets — or ``None``.

    Exact also for non-injective a-sides: per matched element it is
    enough to compare against the first and last a-owner in sorted
    order (if they differ, some a-owner differs from any b-owner)."""
    if e_a.size == 0 or e_b.size == 0:
        return None
    order = np.argsort(e_a, kind="stable")
    es, os_, is_ = e_a[order], o_a[order], i_a[order]
    lo = np.searchsorted(es, e_b, side="left")
    hi = np.searchsorted(es, e_b, side="right")
    found = lo < hi
    if not found.any():
        return None
    fl, fh = lo[found], hi[found]
    mismatch = (os_[fl] != o_b[found]) | (os_[fh - 1] != o_b[found])
    if not mismatch.any():
        return None
    pos = int(np.argmax(mismatch))
    b_lane = int(np.nonzero(found)[0][pos])
    a_slot = int(fl[pos]) if os_[fl[pos]] != o_b[b_lane] \
        else int(fh[pos] - 1)
    return (int(is_[a_slot]), int(i_b[b_lane]), int(e_b[b_lane]),
            int(os_[a_slot]), int(o_b[b_lane]))


def _check_fused_pair(st1, st2, boundary: str) -> List[Diagnostic]:
    """All three Bernstein conditions between two clauses sharing a
    fused phase, at instance-owner granularity."""
    ir1, ir2 = st1.ir, st2.ir
    i1, o1 = _instances(ir1)
    i2, o2 = _instances(ir2)
    w1 = _access_elems(ir1, ir1.write, i1)
    w2 = _access_elems(ir2, ir2.write, i2)
    deps = []
    # flow: st1 writes an element another processor's st2 instance reads
    for acc in ir2.reads:
        if acc.name != ir1.write.name:
            continue
        r2 = _access_elems(ir2, acc, i2)
        hit = _cross_witness(w1, o1, i1, r2, o2, i2)
        if hit is not None:
            deps.append(("flow", acc, hit))
    # anti: st1 reads an element another processor's st2 instance writes
    for acc in ir1.reads:
        if acc.name != ir2.write.name:
            continue
        r1 = _access_elems(ir1, acc, i1)
        hit = _cross_witness(w2, o2, i2, r1, o1, i1)
        if hit is not None:
            ia, ib, elem, pa, pb = hit
            deps.append(("anti", acc, (ib, ia, elem, pb, pa)))
    # output: both clauses write the same element on different processors
    if ir1.write.name == ir2.write.name:
        hit = _cross_witness(w1, o1, i1, w2, o2, i2)
        if hit is not None:
            deps.append(("output", ir2.write, hit))
    out = []
    for kind, acc, (ia, ib, elem, pa, pb) in deps:
        out.append(_diag(
            "PROG001",
            f"fused phase {boundary} ({st1.name}+{st2.name}): "
            f"cross-processor {kind} dependence on {acc.name}[{elem}] — "
            f"instance i={ia} runs on p{pa}, instance i={ib} on p{pb}, "
            "but no barrier separates the clauses",
            clause=st2.name, access=acc.label,
            witnesses={pa: [ia], pb: [ib]},
            hint="the eliminate-barriers proof and the independent "
                 "dependence re-derivation disagree: optimizer bug"))
    return out


def _verify_fusion(pir, report: DiagnosticReport) -> int:
    """PROG001 over every pair inside every fused phase; returns the
    number of certified pairs."""
    certified = 0
    for group in pir.groups:
        if len(group) < 2:
            continue
        for j_pos, j in enumerate(group):
            for k in group[j_pos + 1:]:
                st1, st2 = pir.steps[j], pir.steps[k]
                boundary = f"{j}->{k}"
                try:
                    found = _check_fused_pair(st1, st2, boundary)
                except _Undecidable as why:
                    report.add(_diag(
                        "PROG001",
                        f"fused phase {boundary} ({st1.name}+{st2.name}) "
                        f"cannot be certified: {why} — the fusion pass "
                        "claimed a proof the verifier cannot reproduce",
                        clause=st2.name,
                        hint="keep the barrier (fuse=False) or make the "
                             "accesses closed-form"))
                    continue
                if found:
                    report.extend(found)
                else:
                    certified += 1
    return certified


# ---------------------------------------------------------------------------
# PROG002/003: element-wise placement agreement
# ---------------------------------------------------------------------------

def _layout_vec(dec) -> np.ndarray:
    """Element -> owning processor, derived from ``proc_array`` (not from
    ``cache_key`` — that is what the pass used)."""
    from ..decomp.multidim import GridDecomposition

    if dec is None:
        raise _Undecidable("no decomposition")
    if isinstance(dec, GridDecomposition):
        vecs = []
        for ax in dec.dims:
            vecs.append(_layout_vec(ax))
        out = np.zeros(1, dtype=np.int64)
        for g, v in zip(dec.grid_shape, vecs):
            out = (out[:, None] * g + v[None, :]).ravel()
        return out
    n = getattr(dec, "n", None)
    if n is None or n > ENUM_BUDGET:
        raise _Undecidable("decomposition has no bounded element range")
    if getattr(dec, "is_replicated", False):
        return np.full(int(n), -1, dtype=np.int64)  # every copy everywhere
    pa = getattr(dec, "proc_array", None)
    if not callable(pa):
        raise _Undecidable(f"{type(dec).__name__} has no proc_array")
    return np.asarray(pa(np.arange(int(n), dtype=np.int64)),
                      dtype=np.int64)


def _placement_witness(d1, d2):
    """First element two decompositions place on different processors,
    as ``(elem, p1, p2)``; ``None`` when the layouts agree."""
    l1, l2 = _layout_vec(d1), _layout_vec(d2)
    if l1.shape != l2.shape:
        return (0, int(l1.size), int(l2.size))
    diff = l1 != l2
    if not diff.any():
        return None
    e = int(np.argmax(diff))
    return (e, int(l1[e]), int(l2[e]))


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
    """Run the static schedule check over every step's shared-flavor
    program — the node kernels ``run_program_mp`` executes, under the
    pre-commit waits it keeps; returns ``(certificate, phase barriers)``,
    ``(None, ())`` without an mp form."""
    from ..runtime.lowering import MpLoweringError, lower_shared

    progs = []
    for st in pir.steps:
        try:
            progs.append(lower_shared(st.ir))
        except MpLoweringError as why:
            report.add(_diag(
                "CHK001",
                f"schedule of clause {st.index} ({st.name}) unverified: "
                f"no mp form ({why})",
                severity=Severity.INFO, clause=st.name))
            return None, ()
    flags = pir.barrier_flags()
    phase = phase_barriers(progs, flags)
    diags, cert = check_schedule(progs, flags=flags,
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
    statically checks the lowered message schedule (SCHED001-SCHED003,
    yielding a :class:`ScheduleCertificate`), audits the generated
    kernels (KRN001-KRN003), and bundles the per-clause reports.

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
    fused_ok = _verify_fusion(pir, report)
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
                         "element-wise (MDH layout agreement)")
    if verification.certificate is not None:
        rec.notes.append(verification.certificate.describe())
    rec.rewrites = 0
    pir.trace.add(rec)
