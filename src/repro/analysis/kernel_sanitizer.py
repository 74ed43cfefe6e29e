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
    AST audit of the rendered kernel source, on the tree
    :func:`repro.pipeline.kernels.compile_kernel` compiles (one
    parse; the verdict rides on the kernel entry).  It may only use the
    names of :data:`repro.core.expr.KERNEL_NAMES`, the ufuncs the
    operator table spells (:data:`repro.core.expr.OPS` /
    ``UNARY_OPS``), each call's ``out=`` a scratch slot ``_s[k]``, and
    negative literals.  Anything else — an injected name, a builtin
    call, an infix operator, a store into a read row, a default or
    annotation on a kernel function, an import — is an error.

``KRN003``
    A guard expression that references no data and is false on every
    domain index can never fire: the clause writes nothing (warning).

``check_kernels_strict`` is the run-time gate: ``run --strict`` for the
mp backend refuses plans with KRN errors exactly as the fused backend
refuses RACE/COMM.
"""

from __future__ import annotations

import ast
import threading
from typing import List, Optional, Tuple

from ..core.expr import KERNEL_NAMES, OPS, UNARY_OPS
from ..pipeline.region import span
from .diagnostics import Diagnostic, Severity
from .support import ENUM_BUDGET, range_count

__all__ = ["sanitize_kernels", "audit_kernel_source", "audit_kernel_tree",
           "check_kernels_strict"]

#: names the rendered kernel may reference, and the ones it subscripts
_KERNEL_NAMES = frozenset(KERNEL_NAMES)
_ARGS = frozenset(("_i", "_r", "_s"))
#: the ``_np`` ufuncs the operator table spells
_NP_ATTRS = frozenset(op.np for op in (*OPS.values(), *UNARY_OPS.values()))


#: held while an AST is converted (``ast.parse``, ``compile`` of a tree):
#: CPython 3.11 keeps the converters' recursion depth per interpreter,
#: so two threads converting at once — a garbage collection can switch
#: threads mid-conversion — fail with ``SystemError`` ("AST constructor
#: recursion depth mismatch")
AST_LOCK = threading.RLock()


def _diag(code, message, *, severity=Severity.ERROR, clause="", access="",
          span=None, witnesses=None, hint=""):
    return Diagnostic(code=code, message=message, severity=severity,
                      clause=clause, access=access, span=span,
                      witnesses=witnesses or {}, hint=hint)


# ---------------------------------------------------------------------------
# KRN002: source audit
# ---------------------------------------------------------------------------

def audit_kernel_source(source: str) -> List[str]:
    """Whitelist audit of one kernel source text; returns violation
    strings (empty = clean)."""
    try:
        with AST_LOCK:
            tree = ast.parse(source)
    except SyntaxError as e:
        return [f"source does not parse: {e}"]
    return audit_kernel_tree(tree)


def audit_kernel_tree(tree) -> List[str]:
    """Audit one parsed kernel source against the slot form's grammar,
    and nothing else: ``def _rhs`` / ``def _guard`` over exactly ``(_i,
    _r, _s)`` (a default, annotation or decorator is code that runs at
    ``def``, before any call), holding ``_np.<ufunc>(operand, ...,
    out=_s[k])`` calls and one ``return operand``.  An operand is a grid ``_i[d]``, a row
    ``_r[k]`` or a slot ``_s[k]``, a number, or a ufunc call with no
    ``out`` (a scalar-only subexpression); every ufunc is one the
    operator table spells.  Returns violation strings (empty = clean)."""
    problems: List[str] = []

    def bad(node, why):
        problems.append(f"line {getattr(node, 'lineno', '?')}: {why}")

    def name(node):
        if node.id not in _KERNEL_NAMES:
            bad(node, f"name {node.id!r} outside the kernel whitelist")

    def expr(node):
        t = type(node)
        if t is ast.Subscript:
            v, k = node.value, node.slice
            if type(v) is ast.Name and v.id in _ARGS and type(k) is \
                    ast.Constant and type(k.value) is int:
                return
            bad(node, f"subscript {ast.unparse(node)} is not a grid, row "
                      "or slot")
        elif t is ast.Constant:
            if type(node.value) in (int, float, bool):
                return
            bad(node, f"constant {node.value!r} not emitted")
        elif t is ast.UnaryOp:
            if type(node.op) is ast.USub and type(node.operand) \
                    is ast.Constant:
                return
            bad(node, f"unary {type(node.op).__name__} not emitted")
        elif t is ast.Call:
            f = node.func
            if type(f) is ast.Attribute and type(f.value) is ast.Name \
                    and f.value.id == "_np":
                if f.attr not in _NP_ATTRS:
                    bad(node, f"_np.{f.attr} is not an emitted element-wise "
                              "call")
            else:
                label = f.id if type(f) is ast.Name else type(f).__name__
                bad(node, f"call of {label!r} outside the kernel whitelist")
                expr(f)
            for a in node.args:
                expr(a)
            for kw in node.keywords:
                if kw.arg != "out":
                    bad(node, f"keyword {kw.arg}= not emitted by the "
                              "code generator")
                elif not (type(kw.value) is ast.Subscript
                          and type(kw.value.value) is ast.Name
                          and kw.value.value.id == "_s"):
                    bad(node, f"out={ast.unparse(kw.value)} is not a "
                              "scratch slot _s[k]")
                expr(kw.value)
            return
        elif t is ast.Name:
            return name(node)
        else:
            bad(node, f"{t.__name__} not emitted: every operator is a "
                      "ufunc call")
        for child in ast.iter_child_nodes(node):  # name what it reaches
            if isinstance(child, ast.expr):
                expr(child)

    for fn in tree.body:
        if type(fn) is not ast.FunctionDef:
            bad(fn, f"{type(fn).__name__} statement in generated kernel")
            for node in ast.walk(fn):
                if type(node) is ast.Name:
                    name(node)
            continue
        a = fn.args
        if fn.name not in ("_rhs", "_guard") or fn.decorator_list \
                or fn.returns is not None or getattr(fn, "type_params", ()) \
                or a.posonlyargs or a.vararg or a.kwonlyargs or a.kwarg \
                or a.defaults or [(x.arg, x.annotation) for x in a.args] \
                != [("_i", None), ("_r", None), ("_s", None)]:
            bad(fn, f"def {fn.name} is not a kernel function "
                    "(_rhs/_guard over exactly _i, _r, _s)")
        for st in fn.body:
            t = type(st)
            if t is ast.Return and st.value is not None or t is ast.Expr \
                    and type(st.value) is ast.Call:
                expr(st.value)
            else:
                bad(st, "return without a value" if t is ast.Return
                    else f"{t.__name__} statement in generated kernel")
                for node in ast.walk(st):
                    if type(node) is ast.Name:
                        name(node)
    return problems


def _audit_sources(ir, kernels) -> List[Diagnostic]:
    """KRN002 as recorded when the source was compiled: an entry only
    exists for a clean source, so only a text that is not the one
    compiled (``kernels.audited``) is parsed and audited again."""
    if kernels.source is kernels.audited:
        return []
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
        f"{flavor} kernel of node {p}: {what} holds index {v} outside "
        f"[0, {n}) at axis {axis}",
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
    """KRN001 over the plan's footprint: what its ``union`` kernels
    with one node per process would gather and store, without building
    them."""
    out, w = [], ir.write.name
    shapes = {acc.name: _extents(ir, acc.name) for acc in ir.accesses()}
    for p, (write, reads) in enumerate(ir.footprint().per_node):
        rows = [(f"gather of read {a!r} (pos {k})", f"read{k}:{a}", a, keys)
                for k, a, keys in reads]
        if write is not None:
            rows.append((f"store of write {w!r}", f"write:{w}", w, write))
        for what, access, name, keys in rows:
            out += _bound(ir, "union", p, what, access,
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
