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

Everything runs in the key algebra of :mod:`repro.pipeline.region`: an
access's out-of-bounds loop indices are one key, the span minus the
exact integer preimage of the array (one NumPy evaluation under
:data:`~repro.analysis.support.ENUM_BUDGET` only for opaque functions),
met with each node's ``Modify_p`` / ``Reside_p`` only when non-empty —
an access in bounds costs O(1), not O(P), key operations.
"""

from __future__ import annotations

from typing import List

from ..core.clause import Ordering
from ..core.ifunc import apply_ifunc
from ..pipeline.region import Key, compress, klen, meet, minus, prog, vec
from .diagnostics import Diagnostic, Severity
from .support import ENUM_BUDGET, BudgetExceeded, first_members

__all__ = ["analyze_comm"]

_MAX_WITNESSES = 4


def _in_bounds(func, n: int, lo: int, hi: int) -> List[Key]:
    """The loop indices of ``[lo, hi]`` whose image under *func* stays
    inside ``[0, n)``, as disjoint keys: the exact integer preimage
    bands, or one NumPy evaluation for an opaque function."""
    try:
        return [prog(l, 1, h - l + 1)
                for l, h in func.preimage(0, n - 1, lo, hi)]
    except NotImplementedError:
        if hi - lo + 1 > ENUM_BUDGET:
            raise BudgetExceeded(f"bounds scan of {func.name}") from None
        i = vec(prog(lo, 1, hi - lo + 1))
        e = apply_ifunc(func, i)
        return [compress(i[(e >= 0) & (e < n)])]


def _outside(key: Key, inside: List[Key]) -> Key:
    """The members of *key* in none of the *inside* keys."""
    for ok in inside:
        key = minus(key, ok)
    return key


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

    # the loop indices whose write, and whose read, leaves its array:
    # one key each over the span, met with the nodes' keys only when
    # non-empty (a write scan over budget is reported for every read)
    wf = w.funcs[0]
    full = prog(span[0], 1, span[1] - span[0] + 1)
    try:
        bad_write = _outside(full, _in_bounds(wf, w.dec.n, *span))
    except BudgetExceeded as exc:
        bad_write = exc
    for acc in ir.reads:
        if not acc.placed or acc.replicated or not acc.axes \
                or acc.axes[0].access is None:
            continue
        g = acc.funcs[0]
        n_read = acc.dec.n
        recv_witness: dict = {}
        send_witness: dict = {}
        try:
            bad_read = _outside(full, _in_bounds(g, n_read, *span))
            if isinstance(bad_write, BudgetExceeded):
                raise bad_write
            if klen(bad_read):
                # receives node p posts with no matching owner anywhere:
                # the part of Modify_p whose read leaves the array (and
                # that Reside_p does not claim all the same)
                for p, ((modify,), (reside,)) in enumerate(
                        zip(ir.member_keys(w), ir.member_keys(acc))):
                    bad = first_members(minus(meet(modify, bad_read),
                                              reside), _MAX_WITNESSES)
                    if bad:
                        recv_witness[p] = bad
            if klen(bad_write):
                # sends node p issues toward an out-of-range target
                for p, (reside,) in enumerate(ir.member_keys(acc)):
                    bad = first_members(meet(reside, bad_write),
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
