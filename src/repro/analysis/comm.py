"""Communication completeness over the Plan IR (§2.7 protocol).

The distributed template is symmetric: node *q* sends element
``B[g(i)]`` to ``proc_A(f(i))`` for every ``i`` in ``Reside_q``, and
node *p* posts one blocking receive per non-resident read index in
``Modify_p``.  The Table I enumerators make both sides closed-form sets,
so the matching can be *proven* at compile time:

``COMM001``  an index in ``Modify_p`` needs ``B[g(i)]`` but ``g(i)``
             lies outside ``B`` — no processor owns it, nobody sends,
             the receive blocks forever (runtime ``DeadlockError``).
``COMM002``  two sends on one channel share a tag ``(pos, i)`` — only
             possible when two reads collapse onto one position
             (a corrupted IR); asserted, never expected to fire.
``COMM003``  a sender computes the receiving processor from an
             out-of-range write element ``f(i)`` — the message targets a
             node that does not exist or never posts the receive.

Everything runs on segment arithmetic (``Modify_p`` minus ``Reside_p``
via :func:`difference_segments`, out-of-bounds witnesses via the exact
integer preimage), with bounded enumeration only for opaque functions.
"""

from __future__ import annotations

from typing import List

from ..core.clause import Ordering
from ..sets.enumerators import difference_segments
from .diagnostics import Diagnostic, Severity
from .support import BudgetExceeded, image_violation, segment_elements

__all__ = ["analyze_comm"]

_MAX_WITNESSES = 4


def _segment_violations(func, segments, n: int, cap: int) -> List[int]:
    """Up to *cap* indices in *segments* whose image under *func* leaves
    ``[0, n)``: one closed-form test of the hull ``[min lo, max hi]``
    first, then — only under a violating hull — closed form per
    unit-stride segment, enumeration for strided ones."""
    out: List[int] = []
    if not segments or image_violation(func, min(s.lo for s in segments),
                                       max(s.hi for s in segments), n) is None:
        return out
    for seg in segments:
        if seg.step == 1:
            cursor = seg.lo
            while cursor <= seg.hi and len(out) < cap:
                bad = image_violation(func, cursor, seg.hi, n)
                if bad is None:
                    break
                out.append(bad)
                cursor = bad + 1
        else:
            for i in seg.indices():
                if not (0 <= func(i) < n):
                    out.append(i)
                    if len(out) >= cap:
                        break
        if len(out) >= cap:
            break
    return out


def analyze_comm(ir) -> List[Diagnostic]:
    """Communication findings for the canonical 1-D distributed path."""
    out: List[Diagnostic] = []
    w = ir.write
    if (ir.clause.ordering is not Ordering.PAR or ir.ndim != 1
            or w is None or not w.placed or w.replicated
            or not w.axes or w.axes[0].access is None):
        return out
    span = tuple(ir.loop_bounds[0])

    # COMM002: the tag space is (read position, index); distinct reads
    # must occupy distinct positions for channels to stay collision-free
    positions = [acc.pos for acc in ir.reads]
    if len(positions) != len(set(positions)):
        dup = next(p for p in positions if positions.count(p) > 1)
        out.append(Diagnostic(
            code="COMM002",
            message=f"two reads share tag position {dup}: their messages "
                    "collide on every common channel",
            span=span,
            hint="read positions come from Clause.reads(); rebuild the "
                 "plan instead of mutating it",
        ))

    wf = w.funcs[0]
    for acc in ir.reads:
        if not acc.placed or acc.replicated or not acc.axes \
                or acc.axes[0].access is None:
            continue
        g = acc.funcs[0]
        n_read = acc.dec.n
        recv_witness: dict = {}
        send_witness: dict = {}
        try:
            for p in range(ir.pmax):
                modify = w.axes[0].access.enumerate(p).segments
                reside = acc.axes[0].access.enumerate(p).segments
                # receives node p posts with no matching owner anywhere
                # (the difference only when Modify_p itself leaves the array)
                needed = difference_segments(list(modify), list(reside)) \
                    if _segment_violations(g, modify, n_read, 1) else []
                bad = _segment_violations(g, needed, n_read, _MAX_WITNESSES)
                if bad:
                    recv_witness[p] = bad
                # sends node p issues toward an out-of-range target
                bad = _segment_violations(wf, list(reside), w.dec.n,
                                          _MAX_WITNESSES)
                if bad:
                    send_witness[p] = bad
        except BudgetExceeded as exc:
            out.append(Diagnostic(
                code="CHK001",
                severity=Severity.WARNING,
                message=f"communication analysis incomplete: {exc}",
                access=f"{acc.label}:{acc.name}",
                span=span,
            ))
            continue
        if recv_witness:
            p0 = min(recv_witness)
            i0 = recv_witness[p0][0]
            out.append(Diagnostic(
                code="COMM001",
                message=f"node {p0} must receive {acc.name}[{g(i0)}] for "
                        f"i={i0}, but no processor owns that element: the "
                        "blocking recv never completes",
                access=f"{acc.label}:{acc.name}",
                span=span,
                witnesses=recv_witness,
                hint=f"keep {g.name} inside [0, {n_read}) over the "
                     "domain, or shrink the domain",
            ))
        if send_witness:
            p0 = min(send_witness)
            i0 = send_witness[p0][0]
            out.append(Diagnostic(
                code="COMM003",
                message=f"node {p0} owns {acc.name}[{g(i0)}] for i={i0} "
                        f"and targets proc_{w.name}({wf.name}={wf(i0)}), "
                        "which is outside the array: the message is "
                        "undeliverable",
                access=f"{acc.label}:{acc.name}",
                span=span,
                witnesses=send_witness,
                hint=f"keep the write access {wf.name} inside "
                     f"[0, {w.dec.n}) over the domain",
            ))
    return out
