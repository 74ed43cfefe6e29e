"""Generated-kernel sanitizer (the ``KRN`` diagnostic family).

The fused/native/mp tiers execute *generated artifacts*: exec-compiled
NumPy source, njit scalar loops, and precomputed regions (slices and
index vectors).  Until now those artifacts were trusted — a codegen bug
would fault inside a worker (or worse, silently read the wrong slot).
This module audits them statically, per plan:

``KRN001``
    Every precomputed region stays inside the buffer it addresses: the
    regions of the global-address flavors (``shared``, and ``gdist`` —
    what real processes run — once lowered) against the declared array
    extents, dist-kernel regions (gathers, sends, ghost fills, stores)
    against the node's local (resident) buffer shape plus the ghost
    margins the node kernel frames it with.

``KRN002``
    AST audit of the rendered kernel sources.  The fused rendering may
    only use the ``_i``/``_r`` vectors, whitelisted Python operators and
    the element-wise ``_np`` calls the code generator emits; the native
    scalar loop additionally gets its loop scaffolding.  Anything else —
    an injected name, a builtin ``min``/``max`` (which would change NaN
    semantics relative to ``np.minimum``/``np.maximum``), an import —
    is an error.  The check also cross-audits NaN parity: a clause using
    ``min``/``max`` must route through ``_np.minimum``/``_np.maximum``
    in *both* renderings.

``KRN003``
    A guard expression that references no data and is false on every
    domain index can never fire: the clause writes nothing (warning).

``check_kernels_strict`` is the run-time gate: ``run --strict`` for the
mp/native backends refuses plans with KRN errors exactly as the fused
backend refuses RACE/COMM.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Tuple

from ..core.expr import BinOp, Ref, UnOp
from .diagnostics import Diagnostic, Severity
from .support import ENUM_BUDGET, range_count

__all__ = ["sanitize_kernels", "audit_kernel_source", "check_kernels_strict"]

#: names the fused (vector) rendering may reference
_FUSED_NAMES = {"_np", "_i", "_r", "_rhs", "_guard"}
#: extra names of the native scalar-loop scaffolding
_NATIVE_NAMES = {"_kernel", "_lanes", "_scatter", "_out", "_m", "_t", "_l"}
#: builtins the native rendering may call
_NATIVE_CALLS = {"range", "abs"}
#: element-wise ``_np`` attributes the code generators emit
_NP_ATTRS = {"minimum", "maximum", "logical_and", "logical_or",
             "logical_not", "absolute"}

_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod)
_CMPOPS = (ast.Gt, ast.GtE, ast.Lt, ast.LtE, ast.Eq, ast.NotEq)


def _diag(code, message, *, severity=Severity.ERROR, clause="", access="",
          span=None, witnesses=None, hint=""):
    return Diagnostic(code=code, message=message, severity=severity,
                      clause=clause, access=access, span=span,
                      witnesses=witnesses or {}, hint=hint)


# ---------------------------------------------------------------------------
# KRN002: source audit
# ---------------------------------------------------------------------------

def audit_kernel_source(source: str, kind: str = "fused") -> List[str]:
    """Whitelist audit of one rendered kernel source; returns violation
    strings (empty = clean).  *kind* is ``"fused"`` (the exec'd NumPy
    expression) or ``"native"`` (the njit scalar loop)."""
    try:
        tree = ast.parse(source)
    except SyntaxError as e:
        return [f"source does not parse: {e}"]
    allowed_names = set(_FUSED_NAMES)
    if kind == "native":
        allowed_names |= _NATIVE_NAMES | _NATIVE_CALLS
    problems: List[str] = []

    def bad(node, why):
        problems.append(f"line {getattr(node, 'lineno', '?')}: {why}")

    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bad(node, "import statement in generated kernel")
        elif isinstance(node, ast.Name):
            if node.id not in allowed_names:
                bad(node, f"name {node.id!r} outside the kernel whitelist")
        elif isinstance(node, ast.Attribute):
            v = node.value
            if (kind == "native" and node.attr == "shape"
                    and isinstance(v, ast.Name) and v.id in _NATIVE_NAMES):
                continue  # `_scatter.shape[0]` loop scaffolding
            if not (isinstance(v, ast.Name) and v.id == "_np"):
                bad(node, f"attribute access on non-_np value "
                          f"(.{node.attr})")
            elif node.attr not in _NP_ATTRS:
                bad(node, f"_np.{node.attr} is not an emitted element-wise "
                          "call")
        elif isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Attribute):
                continue  # audited as Attribute above
            if not (isinstance(f, ast.Name) and f.id in _NATIVE_CALLS
                    and kind == "native"):
                name = getattr(f, "id", type(f).__name__)
                bad(node, f"call of {name!r} outside the kernel whitelist")
        elif isinstance(node, ast.BinOp):
            if not isinstance(node.op, _BINOPS):
                bad(node, f"operator {type(node.op).__name__} not emitted "
                          "by the code generator")
        elif isinstance(node, ast.Compare):
            for op in node.ops:
                if not isinstance(op, _CMPOPS):
                    bad(node, f"comparison {type(op).__name__} not emitted "
                              "by the code generator")
        elif isinstance(node, ast.UnaryOp):
            if not isinstance(node.op, (ast.USub, ast.Not)):
                bad(node, f"unary {type(node.op).__name__} not emitted")
        elif isinstance(node, (ast.Lambda, ast.Await, ast.Yield,
                               ast.YieldFrom, ast.Global, ast.Nonlocal,
                               ast.Delete, ast.With, ast.Try, ast.Raise,
                               ast.ClassDef, ast.While)):
            bad(node, f"{type(node).__name__} statement in generated kernel")
    return problems


def _ops_used(expr, out: set) -> set:
    if isinstance(expr, BinOp):
        out.add(expr.op)
        _ops_used(expr.left, out)
        _ops_used(expr.right, out)
    elif isinstance(expr, UnOp):
        out.add(expr.op)
        _ops_used(expr.operand, out)
    return out


def _audit_sources(ir, kernels) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    cname = ir.clause.name or "<anonymous>"
    for why in audit_kernel_source(kernels.source, "fused"):
        out.append(_diag(
            "KRN002", f"fused kernel source rejected: {why}",
            clause=cname, access=f"write:{kernels.write_name}",
            hint="the rendered kernel escaped the code generator's "
                 "whitelist; recompile the plan (clear_plan_cache)"))
    try:
        from ..pipeline.native import render_native_source

        native_src: Optional[str] = render_native_source(ir.clause)
    except Exception:  # no native rendering: nothing to cross-audit
        native_src = None
    if native_src is not None:
        for why in audit_kernel_source(native_src, "native"):
            out.append(_diag(
                "KRN002", f"native kernel source rejected: {why}",
                clause=cname, access=f"write:{kernels.write_name}"))
    # NaN parity: min/max must be the NaN-propagating NumPy forms in
    # every rendering of this clause
    ops = _ops_used(ir.clause.rhs, set())
    if ir.clause.guard is not None:
        _ops_used(ir.clause.guard, ops)
    for op, spelled in (("min", "_np.minimum"), ("max", "_np.maximum")):
        if op not in ops:
            continue
        for label, src in (("fused", kernels.source), ("native", native_src)):
            if src is not None and spelled not in src:
                out.append(_diag(
                    "KRN002",
                    f"NaN-semantics parity broken: clause uses {op!r} but "
                    f"the {label} rendering does not spell it {spelled} "
                    "(builtin min/max does not propagate NaN)",
                    clause=cname, access=f"write:{kernels.write_name}"))
    return out


# ---------------------------------------------------------------------------
# KRN001: index-array bounds
# ---------------------------------------------------------------------------

def _extents(ir, name: str) -> Optional[Tuple[int, ...]]:
    """Global shape of array *name* from the plan's accesses."""
    from ..decomp.multidim import GridDecomposition

    accs = [ir.write] if ir.write is not None else []
    accs += list(ir.reads)
    for acc in accs:
        if acc is None or acc.name != name:
            continue
        dec = acc.dec
        if isinstance(dec, GridDecomposition):
            return tuple(int(ax.n) for ax in dec.dims)
        n = getattr(dec, "n", None)
        if n is not None:
            return (int(n),)
    return None


def _violation(region, extents) -> Optional[Tuple[int, int, object]]:
    """First ``(axis, index, extent)`` of a region escaping its array: a
    slice is checked at its first and last element, a vector at its min
    and max — exact without enumeration.  A safety property, not an
    optimisation: NumPy silently wraps a negative slice bound and clips
    one past the end.  Negative indices are flagged even without known
    extents."""
    spans = region.extent()
    if extents is None or len(extents) != len(spans):
        extents = (None,) * len(spans)
    for axis, (span, n) in enumerate(zip(spans, extents)):
        if span is not None and (
                span[0] < 0 or n is not None and span[1] >= n):
            return axis, span[0] if span[0] < 0 else span[1], n
    return None


def _local_shape(dec, p: int) -> Optional[Tuple[int, ...]]:
    """Shape of node *p*'s local buffer."""
    for attr in ("local_shape", "local_size"):
        f = getattr(dec, attr, None)
        if callable(f):
            try:
                size = f(p)
            except Exception:
                return None
            return tuple(size) if attr == "local_shape" else (int(size),)
    return None


def _node_keys(nd, write_name):
    """``(what, access, array, region)`` for every gather, send and
    store region of one node kernel."""
    for r in nd.reads:
        yield (f"gather of read {r.name!r} (pos {r.pos})",
               f"read{r.pos}:{r.name}", r.name, r.mem)
        for src, fill in r.sources if r.lanes is None else ():
            yield (f"ghost fill of read {r.name!r} (pos {r.pos}) from "
                   f"node {src}", f"read{r.pos}:{r.name}", r.name, fill)
    for s in nd.sends:
        for q, region in s.peers:
            yield (f"send of read {s.name!r} (pos {s.pos}) to node {q}",
                   f"read{s.pos}:{s.name}", s.name, region)
    for blk in nd.commits:
        yield (f"store of write {write_name!r}", f"write:{write_name}",
               write_name, blk.write)


def _check_bounds(ir, kernels) -> List[Diagnostic]:
    """Every region against the buffer it addresses: node *p*'s local
    buffers for the ``dist`` flavor — framed by the node kernel's ghost
    margins, ``lo + n + hi`` per axis — the global arrays for the other
    two."""
    from ..pipeline.kernels import _FLAVORS

    out: List[Diagnostic] = []
    decs = {acc.name: acc.dec for acc in reversed(ir.accesses())}
    for flavor, (local, _dist) in _FLAVORS.items():
        for nd in getattr(kernels, flavor) or ():
            for what, access, name, region in _node_keys(
                    nd, kernels.write_name):
                shape = _local_shape(decs.get(name), nd.p) if local \
                    else _extents(ir, name)
                if shape is not None and name in nd.margins:
                    shape = tuple(lo + n + hi for (lo, hi), n
                                  in zip(nd.margins[name], shape))
                hit = _violation(region, shape)
                if hit is not None:
                    axis, v, n = hit
                    out.append(_diag(
                        "KRN001",
                        f"{flavor} kernel of node {nd.p}: {what} holds "
                        f"index {v} outside [0, {n}) at axis {axis}",
                        clause=ir.clause.name or "<anonymous>",
                        access=access, witnesses={nd.p: [v]},
                        hint="a corrupted or stale key would fault (or "
                             "silently wrap or clip) at run time"))
    return out


# ---------------------------------------------------------------------------
# KRN003: dead guards
# ---------------------------------------------------------------------------

def _has_refs(expr) -> bool:
    if isinstance(expr, Ref):
        return True
    if isinstance(expr, BinOp):
        return _has_refs(expr.left) or _has_refs(expr.right)
    if isinstance(expr, UnOp):
        return _has_refs(expr.operand)
    return False


def _check_guard(ir) -> List[Diagnostic]:
    guard = ir.clause.guard
    if guard is None or _has_refs(guard):
        return []  # data-dependent guards are not statically decidable
    bounds = list(ir.loop_bounds)
    total = 1
    for lo, hi in bounds:
        total *= range_count(lo, hi)
    if total == 0 or total > ENUM_BUDGET:
        return []
    import itertools

    ranges = [range(lo, hi + 1) for lo, hi in bounds]
    for idx in itertools.product(*ranges):
        try:
            if guard.eval(idx, {}):
                return []
        except Exception:
            return []  # opaque guard: leave it to the runtime
    span = tuple(bounds[0]) if len(bounds) == 1 else None
    return [_diag(
        "KRN003",
        f"guard {guard!r} is false on all {total} domain indices: the "
        "clause never writes",
        severity=Severity.WARNING,
        clause=ir.clause.name or "<anonymous>", span=span,
        hint="remove the guard or fix its bounds; every iteration is "
             "filtered out")]


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def sanitize_kernels(ir) -> List[Diagnostic]:
    """Audit one compiled plan's generated kernels; returns KRN findings
    (empty when the plan has no kernels — nothing generated, nothing to
    audit)."""
    out: List[Diagnostic] = []
    kernels = getattr(ir, "kernels", None)
    if kernels is not None:
        out += _audit_sources(ir, kernels)
        out += _check_bounds(ir, kernels)
    out += _check_guard(ir)
    return out


def check_kernels_strict(ir, strict: bool) -> None:
    """``run --strict`` gate for the mp/native tiers: refuse execution
    when the kernel sanitizer finds a KRN error (mirrors the fused
    backend's RACE/COMM gate)."""
    if not strict:
        return
    offending = [d for d in sanitize_kernels(ir)
                 if d.is_error and d.code.startswith("KRN")]
    if offending:
        from ..machine.fused import FusedStrictError

        codes = ", ".join(sorted({d.code for d in offending}))
        raise FusedStrictError(
            f"execution refused under --strict: kernel sanitizer flagged "
            f"{codes} ({offending[0].message})")
