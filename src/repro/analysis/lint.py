"""Decomposition lint over the Plan IR.

Warnings about *legal but slow* decomposition choices, computed from the
per-processor ``|Modify_p|`` counts the plan's membership keys give in
closed form:

``LINT001``  load imbalance — the busiest processor holds more than
             twice the mean share of the iteration space.
``LINT002``  idle processors — some processors own no iteration at all.
``LINT003``  scattered sequential chain — a ``•`` recurrence whose write
             is scattered: consecutive iterations live on different
             processors, so every step of the chain is a message.
``LINT004``  naive fallback — an access has no Table I closed form and
             membership degrades to the full-range scan (info only).
"""

from __future__ import annotations

import math
from typing import List, Optional

from ..core.clause import Ordering
from ..decomp.blockscatter import BlockScatter
from ..decomp.scatter import Scatter
from ..pipeline.region import klen
from .diagnostics import Diagnostic, Severity

__all__ = ["analyze_lint"]


def _modify_counts(ir) -> Optional[List[int]]:
    """Per-processor ``|Modify_p|`` from the write's membership keys
    (product over loop dims), or ``None`` when they are unavailable."""
    w = ir.write
    if w is None or not w.placed or w.replicated or not w.axes:
        return None
    if any(ax.access is None for ax in w.axes):
        return None
    if sorted(ax.loop_dim for ax in w.axes) != list(range(ir.ndim)):
        return None
    return [math.prod(map(klen, keys)) for keys in ir.member_keys(w)]


def analyze_lint(ir) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    w = ir.write
    if w is None:
        return out
    span = tuple(ir.loop_bounds[0]) if ir.ndim == 1 else None
    counts = _modify_counts(ir)
    if counts is not None and ir.pmax > 1 and sum(counts) > 0:
        total = sum(counts)
        busiest = max(range(ir.pmax), key=lambda p: counts[p])
        mean = total / ir.pmax
        if counts[busiest] > 2 * mean and counts[busiest] > min(counts):
            out.append(Diagnostic(
                code="LINT001",
                severity=Severity.WARNING,
                message=f"processor {busiest} executes "
                        f"{counts[busiest]} of {total} iterations "
                        f"(mean {mean:.1f}): |Modify_p| = {counts}",
                access=f"{w.label}:{w.name}",
                span=span,
                hint="a block or scatter decomposition of the written "
                     "array spreads Modify_p evenly",
            ))
        idle = [p for p in range(ir.pmax) if counts[p] == 0]
        if idle:
            out.append(Diagnostic(
                code="LINT002",
                severity=Severity.WARNING,
                message=f"{len(idle)} of {ir.pmax} processors own no "
                        f"iteration: {idle[:8]}",
                access=f"{w.label}:{w.name}",
                span=span,
                hint="shrink pmax or choose a decomposition whose owned "
                     "ranges intersect the write image",
            ))
    if (ir.clause.ordering is Ordering.SEQ and ir.doacross_distances
            and w.placed):
        dec = w.dec
        scattered = isinstance(dec, Scatter) or (
            isinstance(dec, BlockScatter) and dec.b < max(
                ir.doacross_distances.values()) + 1)
        if scattered and ir.pmax > 1:
            s = max(ir.doacross_distances.values())
            out.append(Diagnostic(
                code="LINT003",
                severity=Severity.WARNING,
                message=f"the recurrence (distance {s}) chains across a "
                        f"{type(dec).__name__} decomposition: every "
                        "iteration forwards its value to another "
                        "processor",
                access=f"{w.label}:{w.name}",
                span=span,
                hint="a Block decomposition keeps chains "
                     "processor-local except at block boundaries",
            ))
    for acc in ir.accesses():
        for ax in acc.axes:
            if ax.access is not None and "naive" in ax.access.rule:
                out.append(Diagnostic(
                    code="LINT004",
                    severity=Severity.INFO,
                    message=f"{acc.label}:{acc.name} has no Table I "
                            "closed form: membership is a full-range "
                            "scan at runtime",
                    access=f"{acc.label}:{acc.name}",
                    span=span,
                    hint="affine, modular, or monotone access functions "
                         "enumerate in closed form",
                ))
                break
    return out
