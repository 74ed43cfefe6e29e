"""Race detection over the Plan IR (Bernstein conditions, §2.6).

A ``//`` clause asserts its parameter instances are independent.  The
analyzer checks the assertion with the same machinery the compiler uses
to *generate* the program:

``RACE001``  write/write — two instances write the same element (a loop
             dimension the write ignores, or a non-injective axis
             function).
``RACE002``  replicated write — every processor writes every element;
             deterministic only as a per-copy broadcast, and the
             kernel tiers fall back to the scalar template for it.
``RACE003``  read/write — an instance reads an element a *different*
             instance writes: the ``//`` (pre-state) result diverges
             from the sequential ordering.
``RACE004``  consistency — the `eliminate-barriers` pass removed the
             barrier although a race exists inside the clause.

Accesses factorize per loop dimension (separable/projected maps), so the
write/write and read/write questions reduce to per-axis questions over
the clause's rectangular domain — closed form where the function class
allows, bounded enumeration otherwise.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.clause import Ordering
from .diagnostics import CODES, Diagnostic, Severity
from .support import (
    BudgetExceeded,
    find_duplicate,
    injective_on,
    loop_carried_pair,
    range_count,
)

__all__ = ["analyze_races"]


def _span(ir) -> Optional[tuple]:
    return tuple(ir.loop_bounds[0]) if ir.ndim == 1 else None


def _owner(ir, i: int) -> Optional[int]:
    """The processor executing 1-D instance *i* under owner-computes,
    when it is well-defined."""
    w = ir.write
    if w is None or not w.placed or not w.funcs or ir.ndim != 1:
        return None
    if w.replicated:
        return None
    e = w.funcs[0](i)
    if 0 <= e < w.dec.n:
        return w.dec.proc(e)
    return None


def _witness(ir, *indices: int) -> dict:
    out: dict = {}
    for i in indices:
        p = _owner(ir, i)
        out.setdefault(p if p is not None else 0, []).append(i)
    return out


def _incomplete(what: str, ir) -> Diagnostic:
    return Diagnostic(
        code="CHK001",
        severity=Severity.WARNING,
        message=f"race analysis incomplete: {what}",
        span=_span(ir),
        hint="shrink the domain or use an affine/modular access so the "
             "closed forms apply",
    )


def _write_write(ir, out: List[Diagnostic]) -> None:
    w = ir.write
    used = set(w.dims)
    for d in range(ir.ndim):
        lo, hi = ir.loop_bounds[d]
        if d not in used and range_count(lo, hi) > 1:
            out.append(Diagnostic(
                code="RACE001",
                message=f"the write ignores loop dimension {d}: instances "
                        f"i{d}={lo} and i{d}={lo + 1} store to the same "
                        "element",
                access=f"{w.label}:{w.name}",
                span=_span(ir),
                witnesses=_witness(ir, lo, lo + 1) if ir.ndim == 1 else {},
                hint="index the written array with every loop dimension, "
                     "or order the clause sequentially (•)",
            ))
    for k, (d, f) in enumerate(zip(w.dims, w.funcs)):
        lo, hi = ir.loop_bounds[d]
        verdict = injective_on(f, lo, hi)
        if verdict is True:
            continue
        try:
            dup = find_duplicate(f, lo, hi)
        except BudgetExceeded as exc:
            out.append(_incomplete(str(exc), ir))
            continue
        if dup is None:
            continue
        i1, i2, elem = dup
        axis = f" axis {k}" if len(w.funcs) > 1 else ""
        out.append(Diagnostic(
            code="RACE001",
            message=f"{f.name} maps instances i={i1} and i={i2} to the "
                    f"same element{axis} ({w.name}[{elem}])",
            access=f"{w.label}:{w.name}",
            span=_span(ir),
            witnesses=_witness(ir, i1, i2) if ir.ndim == 1 else {},
            hint="make the write access injective over the domain "
                 "(e.g. an affine index) or order the clause • ",
        ))


def _read_write(ir, out: List[Diagnostic]) -> None:
    w = ir.write
    for acc in ir.reads:
        if acc.name != w.name or not acc.funcs:
            continue
        if ir.ndim == 1 and len(w.funcs) == 1 and len(acc.funcs) == 1:
            lo, hi = ir.loop_bounds[0]
            try:
                pair = loop_carried_pair(w.funcs[0], acc.funcs[0], lo, hi)
            except BudgetExceeded as exc:
                out.append(_incomplete(str(exc), ir))
                continue
        else:
            try:
                pair = _nd_carried_pair(ir, acc)
            except BudgetExceeded as exc:
                out.append(_incomplete(str(exc), ir))
                continue
        if pair is None:
            continue
        i1, i2, elem = pair
        out.append(Diagnostic(
            code="RACE003",
            message=f"instance i={i2} reads {acc.name}[{elem}], which "
                    f"instance i={i1} writes: // (pre-state) and "
                    "sequential orderings diverge",
            access=f"{acc.label}:{acc.name}",
            span=_span(ir),
            witnesses=_witness(ir, i1, i2) if ir.ndim == 1 else {},
            hint="order the clause sequentially (•); constant-distance "
                 "backward recurrences then pipeline as a DOACROSS",
        ))


def _nd_carried_pair(ir, acc):
    """Witness for an n-D read/write overlap on the written array.

    Exact when every axis pairs the same loop dimension: if all axis
    function pairs are identical the dependence forces equal instances
    (no race); if exactly one axis differs, a witness on that axis
    extends with equal coordinates elsewhere *when the shared functions
    agree*.  Anything less structured falls back to enumerating the
    (rectangular) domain, guarded by the budget.
    """
    w = ir.write
    if (w.dims == acc.dims and len(w.funcs) == len(acc.funcs)):
        differing = [k for k, (fw, fr) in enumerate(zip(w.funcs, acc.funcs))
                     if not _same_func(fw, fr)]
        if not differing:
            return None
        if len(differing) == 1:
            k = differing[0]
            d = w.dims[k]
            lo, hi = ir.loop_bounds[d]
            pair = loop_carried_pair(w.funcs[k], acc.funcs[k], lo, hi)
            if pair is None:
                return None
            return pair
    # full product enumeration
    total = 1
    for lo, hi in ir.loop_bounds:
        total *= range_count(lo, hi)
    if total > (1 << 16):
        raise BudgetExceeded(f"{total} instances in the n-D domain")
    import itertools

    def elem(funcs, dims, idx):
        return tuple(f(idx[d]) for f, d in zip(funcs, dims))

    writers: dict = {}
    ranges = [range(lo, hi + 1) for lo, hi in ir.loop_bounds]
    for idx in itertools.product(*ranges):
        writers.setdefault(elem(w.funcs, w.dims, idx), []).append(idx)
    for idx in itertools.product(*ranges):
        for widx in writers.get(elem(acc.funcs, acc.dims, idx), ()):
            if widx != idx:
                return widx, idx, elem(acc.funcs, acc.dims, idx)
    return None


def _same_func(a, b) -> bool:
    try:
        return bool(a == b)
    except Exception:  # pragma: no cover - exotic __eq__
        return a is b


def analyze_races(ir) -> List[Diagnostic]:
    """Race findings for one compiled clause (``//`` clauses only —
    sequential ordering fixes the instance order by construction)."""
    out: List[Diagnostic] = []
    w = ir.write
    if ir.clause.ordering is not Ordering.PAR or w is None or not w.placed:
        return out
    if w.replicated and ir.pmax > 1:
        out.append(Diagnostic(
            code="RACE002",
            severity=Severity.WARNING,
            message=f"{CODES['RACE002']}; every pair of processors "
                    "overlaps on every written element",
            access=f"{w.label}:{w.name}",
            span=_span(ir),
            hint="place the write (e.g. block) unless the broadcast is "
                 "intended; the kernel tiers fall back to scalar",
        ))
    if w.funcs:
        _write_write(ir, out)
        _read_write(ir, out)
    # cross-processor races (witnesses span more than one owner) must
    # have kept the barrier — `eliminate-barriers` proves the same relation
    # on the membership keys, so a contradiction means the two diverge
    cross = [d for d in out
             if d.code == "RACE003" and len(d.witnesses) > 1]
    if cross and ir.successor is not None and not ir.barrier_needed:
        out.append(Diagnostic(
            code="RACE004",
            message="the barrier after this clause was eliminated, but "
                    "instances on different processors race "
                    f"({cross[0].code})",
            span=_span(ir),
            hint="keep the barrier: re-run without eliminate-barriers or "
                 "fix the underlying race",
        ))
    return out
