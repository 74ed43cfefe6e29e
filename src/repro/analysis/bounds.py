"""Bounds checking over the Plan IR.

NumPy's negative-index wraparound and ``Block.proc`` on out-of-range
elements make out-of-bounds accesses *silently wrong* (or deadlocks) at
runtime, so the verifier proves every access image stays inside its
declared array — per axis, over the rectangular domain, with the exact
integer preimage of the valid band:

``BND001``  a read image leaves ``[0, n)``.
``BND002``  the write image leaves ``[0, n)`` — those iterations belong
            to no ``Modify_p`` and are dropped without a trace.
"""

from __future__ import annotations

from typing import List

from .diagnostics import Diagnostic, Severity
from .support import BudgetExceeded, image_violation

__all__ = ["analyze_bounds"]


def analyze_bounds(ir) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    span = tuple(ir.loop_bounds[0]) if ir.ndim == 1 else None
    for acc in ir.accesses():
        if not acc.placed or not acc.funcs:
            continue
        for k, ax in enumerate(acc.axes):
            lo, hi = ir.loop_bounds[ax.loop_dim]
            n = ax.dec.n
            try:
                bad = image_violation(ax.func, lo, hi, n)
            except BudgetExceeded as exc:
                out.append(Diagnostic(
                    code="CHK001",
                    severity=Severity.WARNING,
                    message=f"bounds analysis incomplete: {exc}",
                    access=f"{acc.label}:{acc.name}",
                    span=span,
                ))
                continue
            if bad is not None:
                axis = f" on axis {k}" if len(acc.axes) > 1 else ""
                is_write = acc.pos is None
                consequence = (
                    "those iterations join no Modify_p and are "
                    "silently dropped" if is_write else
                    "at runtime this deadlocks (no owner to send) or "
                    "wraps around to the wrong element"
                )
                out.append(Diagnostic(
                    code="BND002" if is_write else "BND001",
                    message=f"{acc.name}[{ax.func.name}] leaves "
                            f"[0, {n}){axis} at i={bad} "
                            f"(element {ax.func(bad)}); {consequence}",
                    access=f"{acc.label}:{acc.name}",
                    span=span,
                    hint=f"restrict the domain so {ax.func.name} stays "
                         f"inside [0, {n})",
                ))
    return out
