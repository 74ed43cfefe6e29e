"""PROG001, the independent Bernstein/DILD re-derivation of a fusion:
the element relation enumerated directly (NumPy arrays bounded by
:data:`~repro.analysis.support.ENUM_BUDGET`) where the pass reasons on
keys — the one element walk of :func:`~repro.analysis.verify_program`,
kept apart from the closed-form rest of it."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..core.ifunc import apply_ifunc
from .diagnostics import Diagnostic, DiagnosticReport, Severity
from .support import ENUM_BUDGET

__all__ = ["verify_fusion"]


class _Undecidable(Exception):
    """The independent re-derivation cannot decide (reason in args)."""


def _diag(code, message, **kw):
    kw.setdefault("severity", Severity.ERROR)
    return Diagnostic(code=code, message=message, **kw)


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


def verify_fusion(pir, report: DiagnosticReport) -> int:
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
