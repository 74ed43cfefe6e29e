"""Translation of mini-language ASTs to V-cal (paper Section 2.5, Fig. 1).

The paper's Fig. 1 example::

    for i:=imin to imax do
        if A[i]>0 then A[i] := B[f(i)]; fi;
    od;

translates to ``∆(i ∈ (k+1:n | [i]A>0)) // ([i](A) := [f(i)](B))``.  This
module performs that extraction mechanically:

* loop nests become parameter-expression domains (1-D or multi-D);
* every subscript expression is classified into an index-propagation
  function — constant, affine ``a.i + c``, or modular
  ``(a.i + c) mod z + d`` — the classes Table I optimizes;
* ``if`` conditions become guards (data predicates on the index set);
* each assignment becomes one clause, in program order.

Symbolic names in bounds and subscripts (``n``, ``k``) are resolved
through a *params* mapping at translation time, mirroring the paper's
compile-time-known constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.bounds import Bounds
from ..core.clause import Clause, Ordering, Program
from ..core.expr import BinOp, Const, Expr, LoopIndex, Ref, UnOp
from ..core.ifunc import AffineF, ConstantF, IFunc, ModularF
from ..core.indexset import IndexSet
from ..core.view import ProjectedMap
from . import ast as A
from .parser import _memo, _parse_cache

__all__ = ["TranslateError", "translate", "translate_source", "classify_index_expr"]


class TranslateError(ValueError):
    """The program falls outside the translatable fragment."""


# ---------------------------------------------------------------------------
# symbolic linear-form analysis of index expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Lin:
    """``a.v + c`` in the single loop variable ``v`` (a may be 0)."""

    a: int
    c: int
    var: Optional[str]  # None when a == 0

    def is_const(self) -> bool:
        return self.a == 0


def _fold_const(node: A.Node, params: Dict[str, int]) -> int:
    """Evaluate an expression containing no loop variables to an int."""
    lin = _linearize(node, params, loop_vars=())
    if not isinstance(lin, _Lin) or not lin.is_const():
        raise TranslateError(f"expression is not compile-time constant: {node}")
    return lin.c


def _linearize(node: A.Node, params: Dict[str, int], loop_vars: Tuple[str, ...]):
    """Symbolic evaluation to ``_Lin`` or a ``ModularF``-shaped tuple.

    Returns either ``_Lin`` or ``("mod", _Lin, z, d)`` representing
    ``(a.v + c) mod z + d``.
    """
    if isinstance(node, A.Num):
        return _Lin(0, node.value, None)
    if isinstance(node, A.Var):
        if node.name in loop_vars:
            return _Lin(1, 0, node.name)
        if node.name in params:
            return _Lin(0, int(params[node.name]), None)
        raise TranslateError(f"unknown name {node.name!r} in index expression")
    if isinstance(node, A.Un) and node.op == "-":
        inner = _linearize(node.operand, params, loop_vars)
        if isinstance(inner, _Lin):
            return _Lin(-inner.a, -inner.c, inner.var)
        raise TranslateError("cannot negate a modular index expression")
    if isinstance(node, A.Bin):
        op = node.op
        left = _linearize(node.left, params, loop_vars)
        right = _linearize(node.right, params, loop_vars)
        # modular forms may only be adjusted by constants
        if isinstance(left, tuple) or isinstance(right, tuple):
            if op in ("+", "-"):
                mod, const, sign = (
                    (left, right, 1) if isinstance(left, tuple) else (right, left, -1)
                )
                if isinstance(const, _Lin) and const.is_const() and not (
                    isinstance(left, tuple) and isinstance(right, tuple)
                ):
                    _tag, lin, z, d = mod
                    if op == "+":
                        return ("mod", lin, z, d + const.c)
                    if sign == 1:  # mod - const
                        return ("mod", lin, z, d - const.c)
            raise TranslateError(
                "modular index expressions support only ± constant"
            )
        assert isinstance(left, _Lin) and isinstance(right, _Lin)
        if left.var and right.var and left.var != right.var:
            raise TranslateError(
                f"index expression mixes loop variables {left.var!r} and "
                f"{right.var!r}"
            )
        var = left.var or right.var
        if op == "+":
            return _Lin(left.a + right.a, left.c + right.c, var if (left.a + right.a) else None)
        if op == "-":
            return _Lin(left.a - right.a, left.c - right.c, var if (left.a - right.a) else None)
        if op == "*":
            if left.a and right.a:
                raise TranslateError("non-linear index expression (v * v)")
            if right.is_const():
                return _Lin(left.a * right.c, left.c * right.c,
                            var if left.a * right.c else None)
            return _Lin(right.a * left.c, right.c * left.c,
                        var if right.a * left.c else None)
        if op == "div":
            if not right.is_const() or right.c == 0:
                raise TranslateError("div requires a non-zero constant divisor")
            if left.is_const():
                return _Lin(0, left.c // right.c, None)
            raise TranslateError(
                "div of the loop variable is not affine (classify as "
                "monotone via the API instead)"
            )
        if op == "mod":
            if not right.is_const() or right.c <= 0:
                raise TranslateError("mod requires a positive constant modulus")
            if left.is_const():
                return _Lin(0, left.c % right.c, None)
            return ("mod", left, right.c, 0)
        raise TranslateError(f"operator {op!r} not allowed in index expressions")
    raise TranslateError(
        f"unsupported index expression node {type(node).__name__}"
    )


def classify_index_expr(
    node: A.Node, params: Dict[str, int], loop_vars: Tuple[str, ...]
) -> Tuple[Optional[str], IFunc]:
    """Classify a subscript expression into ``(loop_var, IFunc)``.

    ``loop_var`` is None for constant subscripts.
    """
    lin = _linearize(node, params, loop_vars)
    if isinstance(lin, tuple):
        _tag, inner, z, d = lin
        if inner.is_const():
            return None, ConstantF(inner.c % z + d)
        return inner.var, ModularF(AffineF(inner.a, inner.c), z, d)
    if lin.is_const():
        return None, ConstantF(lin.c)
    return lin.var, AffineF(lin.a, lin.c)


# ---------------------------------------------------------------------------
# Booster-style views (paper §2.5): named reindexings, resolved by
# Definition 5 composition at translation time
# ---------------------------------------------------------------------------

@dataclass
class _ViewDef:
    """A resolved view: the real target array and, per target dimension,
    the contributing formal position (None for constant subscripts) and
    the index function in that formal."""

    target: str
    arity: int  # number of formals
    dims: List[Tuple[Optional[int], IFunc]]


def _declare_view(
    decl, params: Dict[str, int], views: Dict[str, "_ViewDef"]
) -> None:
    formals = decl.formals
    if len(set(formals)) != len(formals):
        raise TranslateError(f"duplicate view formals in {decl.name!r}")
    dims: List[Tuple[Optional[int], IFunc]] = []
    for idx_expr in decl.target.indices:
        var, fn = classify_index_expr(idx_expr, params, tuple(formals))
        dims.append((formals.index(var) if var is not None else None, fn))
    vd = _ViewDef(decl.target.name, len(formals), dims)
    # views over views resolve immediately (Definition 5 composition):
    inner = views.get(vd.target)
    if inner is not None:
        resolved: List[Tuple[Optional[int], IFunc]] = []
        if len(vd.dims) != inner.arity:
            raise TranslateError(
                f"view {decl.name!r} applies {len(vd.dims)} indices to "
                f"{vd.target!r} which takes {inner.arity}"
            )
        for fp_inner, f_inner in inner.dims:
            if fp_inner is None:
                resolved.append((None, f_inner))
                continue
            fp_outer, g = vd.dims[fp_inner]
            composed = f_inner.compose(g)
            if fp_outer is None:
                if not isinstance(composed, ConstantF):
                    composed = ConstantF(composed(0))
                resolved.append((None, composed))
            else:
                resolved.append((fp_outer, composed))
        vd = _ViewDef(inner.target, len(formals), resolved)
    views[decl.name] = vd


def _resolve_view_ref(
    sub: A.Subscript,
    vd: _ViewDef,
    params: Dict[str, int],
    loop_vars: Tuple[str, ...],
) -> Ref:
    """Use of a view inside a clause: compose the view's functions with
    the use-site subscript expressions."""
    if len(sub.indices) != vd.arity:
        raise TranslateError(
            f"view {sub.name!r} takes {vd.arity} indices, got "
            f"{len(sub.indices)}"
        )
    use: List[Tuple[Optional[str], IFunc]] = [
        classify_index_expr(e, params, loop_vars) for e in sub.indices
    ]
    dims: List[int] = []
    funcs: List[IFunc] = []
    for fp, f in vd.dims:
        if fp is None:
            dims.append(0)
            funcs.append(f)
            continue
        var, g = use[fp]
        composed = f.compose(g)
        if var is None:
            if not isinstance(composed, ConstantF):
                composed = ConstantF(composed(0))
            dims.append(0)
        else:
            dims.append(loop_vars.index(var))
        funcs.append(composed)
    return Ref(vd.target, ProjectedMap(dims, funcs))


# ---------------------------------------------------------------------------
# expression translation
# ---------------------------------------------------------------------------

def _translate_expr(
    node: A.Node,
    params: Dict[str, int],
    loop_vars: Tuple[str, ...],
    views: Optional[Dict[str, _ViewDef]] = None,
) -> Expr:
    if isinstance(node, A.Num):
        return Const(node.value)
    if isinstance(node, A.Var):
        if node.name in loop_vars:
            return LoopIndex(loop_vars.index(node.name))
        if node.name in params:
            return Const(params[node.name])
        raise TranslateError(f"unknown scalar {node.name!r}")
    if isinstance(node, A.Subscript):
        return _translate_ref(node, params, loop_vars, views)
    if isinstance(node, A.Bin):
        return BinOp(
            node.op,
            _translate_expr(node.left, params, loop_vars, views),
            _translate_expr(node.right, params, loop_vars, views),
        )
    if isinstance(node, A.Un):
        return UnOp(node.op,
                    _translate_expr(node.operand, params, loop_vars, views))
    raise TranslateError(f"unsupported expression node {type(node).__name__}")


def _translate_ref(
    sub: A.Subscript,
    params: Dict[str, int],
    loop_vars: Tuple[str, ...],
    views: Optional[Dict[str, _ViewDef]] = None,
) -> Ref:
    if views and sub.name in views:
        return _resolve_view_ref(sub, views[sub.name], params, loop_vars)
    dims: List[int] = []
    funcs: List[IFunc] = []
    for k, idx_expr in enumerate(sub.indices):
        var, fn = classify_index_expr(idx_expr, params, loop_vars)
        dims.append(loop_vars.index(var) if var is not None else 0)
        funcs.append(fn)
    return Ref(sub.name, ProjectedMap(dims, funcs))


# ---------------------------------------------------------------------------
# statement translation
# ---------------------------------------------------------------------------

def _flatten_loops(node: A.For) -> Tuple[List[A.For], List[A.Node]]:
    """Peel perfectly nested loops; returns (loop specs, innermost body)."""
    loops = [node]
    body = node.body
    while len(body) == 1 and isinstance(body[0], A.For):
        loops.append(body[0])
        body = body[0].body
    return loops, body


def _translate_for(
    node: A.For,
    params: Dict[str, int],
    program: Program,
    counter: List[int],
    views: Optional[Dict[str, _ViewDef]] = None,
) -> None:
    loops, body = _flatten_loops(node)
    loop_vars = tuple(l.var for l in loops)
    if len(set(loop_vars)) != len(loop_vars):
        raise TranslateError(f"duplicate loop variable in nest {loop_vars}")
    lo = tuple(_fold_const(l.lo, params) for l in loops)
    hi = tuple(_fold_const(l.hi, params) for l in loops)
    domain = IndexSet(Bounds(lo, hi))
    ordering = (
        Ordering.PAR if all(l.order == "par" for l in loops) else Ordering.SEQ
    )

    guard: Optional[Expr] = None
    stmts = body
    if len(body) == 1 and isinstance(body[0], A.If):
        iff = body[0]
        if iff.orelse:
            raise TranslateError(
                "else branches are not part of the canonical clause form"
            )
        guard = _translate_expr(iff.cond, params, loop_vars, views)
        stmts = iff.body

    if not stmts:
        raise TranslateError("empty loop body")
    for st in stmts:
        if not isinstance(st, A.Assign):
            raise TranslateError(
                f"loop bodies must be assignments (optionally guarded); got "
                f"{type(st).__name__}"
            )
        lhs = _translate_ref(st.target, params, loop_vars, views)
        rhs = _translate_expr(st.value, params, loop_vars, views)
        counter[0] += 1
        program.add(
            Clause(
                domain=domain,
                lhs=lhs,
                rhs=rhs,
                ordering=ordering,
                guard=guard,
                name=f"clause{counter[0]}",
            )
        )


def translate(block: A.Block, params: Optional[Dict[str, int]] = None) -> Program:
    """Translate a parsed program to a V-cal :class:`Program`."""
    params = dict(params or {})
    program = Program()
    counter = [0]
    views: Dict[str, _ViewDef] = {}
    for st in block.body:
        if isinstance(st, A.ViewDecl):
            _declare_view(st, params, views)
        elif isinstance(st, A.For):
            _translate_for(st, params, program, counter, views)
        else:
            raise TranslateError(
                "top-level statements must be loops or view declarations "
                "(the state-less parts of the algorithm, paper §2.1)"
            )
    return program


def translate_source(
    source: str, params: Optional[Dict[str, int]] = None, *,
    probe: bool = False,
) -> Optional[Program]:
    """Parse + translate in one step, both memoized: the translation is
    kept beside the text's AST, keyed by *params*, and every call gets
    a fresh :class:`Program` around the very same (frozen) clauses.

    *probe* only looks: the memoized translation, or ``None`` when there
    is none yet; it never lexes, parses or translates and moves no
    counter (the serve loop's lookup)."""
    key = tuple(sorted((params or {}).items()))
    if probe:
        entry = _parse_cache.get(source, count=False)
        program = None if entry is None else entry.translations.get(key)
    else:
        entry = _memo(source)
        program = entry.translations.get(key)
        if program is None:
            program = _parse_cache.keep(entry, key,
                                        translate(entry.tree, params))
    return None if program is None else Program(list(program),
                                                program.name)
