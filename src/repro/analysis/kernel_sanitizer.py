"""Generated-kernel sanitizer (the ``KRN`` diagnostic family).

The fused/mp tiers execute *generated artifacts*: exec-compiled NumPy
source and precomputed regions (slices and index vectors).  Until now
those artifacts were trusted — a codegen bug would fault inside a worker
(or worse, silently read the wrong slot).  This module audits them
statically, per plan:

``KRN001``
    Every precomputed region stays inside the buffer it addresses: the
    regions of the global-address flavors (``union``, ``shared``,
    ``gdist``) against the declared array extents, dist-kernel regions
    (gathers, sends, ghost fills, stores) against the node's local
    buffer shape plus its ghost margins — on each flavor as it is built
    (a finding refuses it) and again by :func:`sanitize_kernels`; and the
    plan's footprint, unbuilt (:func:`~repro.analysis.verify_program`).

``KRN002``
    AST audit of the rendered kernel source.  It may only use the
    ``_i``/``_r`` vectors, whitelisted Python operators and the
    element-wise ``_np`` calls of the operator table
    (:data:`repro.core.expr.OPS`).  Anything else — an injected name, a
    builtin call, an import — is an error.

``KRN003``
    A guard expression that references no data and is false on every
    domain index can never fire: the clause writes nothing (warning).

``check_kernels_strict`` is the run-time gate: ``run --strict`` for the
mp backend refuses plans with KRN errors exactly as the fused backend
refuses RACE/COMM.
"""

from __future__ import annotations

import ast
import re
from typing import List, Optional, Tuple

from ..core.expr import OPS, UNARY_OPS
from ..pipeline.region import span
from .diagnostics import Diagnostic, Severity
from .support import ENUM_BUDGET, range_count

__all__ = ["sanitize_kernels", "audit_kernel_source", "check_kernels_strict"]

#: names the rendered kernel may reference
_KERNEL_NAMES = {"_np", "_i", "_r", "_rhs", "_guard"}
#: element-wise ``_np`` attributes the operator table spells
_NP_ATTRS = {name for op in (*OPS.values(), *UNARY_OPS.values())
             for name in re.findall(r"_np\.(\w+)", op.np)}

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

def audit_kernel_source(source: str) -> List[str]:
    """Whitelist audit of one rendered kernel source (the exec'd NumPy
    expression); returns violation strings (empty = clean)."""
    try:
        tree = ast.parse(source)
    except SyntaxError as e:
        return [f"source does not parse: {e}"]
    problems: List[str] = []

    def bad(node, why):
        problems.append(f"line {getattr(node, 'lineno', '?')}: {why}")

    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bad(node, "import statement in generated kernel")
        elif isinstance(node, ast.Name):
            if node.id not in _KERNEL_NAMES:
                bad(node, f"name {node.id!r} outside the kernel whitelist")
        elif isinstance(node, ast.Attribute):
            v = node.value
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


def _audit_sources(ir, kernels) -> List[Diagnostic]:
    return [_diag("KRN002", f"kernel source rejected: {why}",
                  clause=ir.clause.name or "<anonymous>",
                  access=f"write:{kernels.write_name}",
                  hint="the rendered kernel escaped the code generator's "
                       "whitelist; recompile the plan (clear_plan_cache)")
            for why in audit_kernel_source(kernels.source)]


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


def _violation(spans, extents) -> Optional[Tuple[int, int, object]]:
    """First ``(axis, index, extent)`` of a region escaping its array,
    from its per-axis ``(min, max)`` *spans* — exact without enumeration.
    A safety property, not an optimisation: NumPy silently wraps a
    negative slice bound and clips one past the end.  Negative indices
    are flagged even without known extents."""
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


def _bound(ir, flavor: str, p: int, what: str, access: str, spans,
           shape) -> List[Diagnostic]:
    """KRN001 for one region of node *p* (per-axis *spans*) in *shape*."""
    hit = _violation(spans, shape)
    if hit is None:
        return []
    axis, v, n = hit
    return [_diag(
        "KRN001",
        f"{flavor} kernel" + ("" if flavor == "union" else f" of node {p}")
        + f": {what} holds index {v} outside [0, {n}) at axis {axis}",
        clause=ir.clause.name or "<anonymous>",
        access=access, witnesses={p: [v]},
        hint="a corrupted or stale key would fault (or "
             "silently wrap or clip) at run time")]


def _check_bounds(ir, flavor: str, nodes) -> List[Diagnostic]:
    """Every region of one flavor's *nodes* against the buffer it
    addresses: node *p*'s local buffers for the ``dist`` flavor — framed
    by the node kernel's ghost margins, ``lo + n + hi`` per axis — the
    global arrays for the other two."""
    from ..pipeline.kernels import _FLAVORS

    out: List[Diagnostic] = []
    local = _FLAVORS[flavor][0]
    decs = {acc.name: acc.dec for acc in reversed(ir.accesses())}
    for nd in nodes:
        for what, access, name, region in _node_keys(nd, ir.write.name):
            shape = _local_shape(decs.get(name), nd.p) if local \
                else _extents(ir, name)
            if shape is not None and name in nd.margins:
                shape = tuple(lo + n + hi for (lo, hi), n
                              in zip(nd.margins[name], shape))
            out += _bound(ir, flavor, nd.p, what, access,
                          tuple(map(span, region.keys)), shape)
    return out


def _check_footprint(ir) -> List[Diagnostic]:
    """KRN001 over the plan's footprint: what its ``shared`` flavor
    would gather and store, without building it."""
    out, w = [], ir.write.name
    shapes = {acc.name: _extents(ir, acc.name) for acc in ir.accesses()}
    for p, (write, reads) in enumerate(ir.footprint().per_node):
        rows = [(f"gather of read {a!r} (pos {k})", f"read{k}:{a}", a, keys)
                for k, a, keys in reads]
        if write is not None:
            rows.append((f"store of write {w!r}", f"write:{w}", w, write))
        for what, access, name, keys in rows:
            out += _bound(ir, "shared", p, what, access,
                          tuple(map(span, keys)), shapes[name])
    return out


# ---------------------------------------------------------------------------
# KRN003: dead guards
# ---------------------------------------------------------------------------

def _check_guard(ir) -> List[Diagnostic]:
    guard = ir.clause.guard
    if guard is None or next(guard.refs(), None) is not None:
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
    """Audit one compiled plan's generated kernels — the source and
    the flavors built so far; returns KRN findings (empty when the plan
    has no kernels — nothing generated, nothing to audit)."""
    out: List[Diagnostic] = []
    kernels = getattr(ir, "kernels", None)
    if kernels is not None:
        out += _audit_sources(ir, kernels)
        for flavor, nodes in kernels.built().items():
            out += _check_bounds(ir, flavor, nodes)
    out += _check_guard(ir)
    return out


def check_kernels_strict(ir, strict: bool) -> None:
    """``run --strict`` gate for the mp tier: refuse execution
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
