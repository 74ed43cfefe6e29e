"""Compiling V-cal fragments to Python source text.

Three small compilers used by the node-program emitter:

* :func:`ifunc_src`   — index functions ``f(i)`` to arithmetic expressions;
* :func:`proc_src` / :func:`local_src` — a decomposition's placement
  functions applied to a value expression (inlined per decomposition kind,
  exactly the formulas of Fig. 2);
* :func:`expr_src`    — element-wise expression trees to Python, with data
  references resolved through a caller-supplied renderer (local array
  subscript in shared-memory code, fetched temp in distributed code).
"""

from __future__ import annotations

from typing import Callable

from ..core.expr import BinOp, Const, Expr, LoopIndex, Ref, UnOp
from ..core.ifunc import AffineF, ComposedF, ConstantF, IFunc, ModularF
from ..decomp.base import Decomposition
from ..decomp.block import Block
from ..decomp.blockscatter import BlockScatter
from ..decomp.replicated import Replicated, SingleOwner
from ..decomp.scatter import Scatter

__all__ = ["ifunc_src", "proc_src", "local_src", "expr_src", "CodegenError"]


class CodegenError(ValueError):
    """A fragment has no closed-form source rendering."""


def ifunc_src(f: IFunc, var: str = "i") -> str:
    """Python expression computing ``f(var)``.

    Raises :class:`CodegenError` for opaque callables (MonotoneF) — the
    emitter falls back to a runtime table for those.
    """
    if isinstance(f, ConstantF):
        return str(f.c)
    if isinstance(f, AffineF):
        if f.a == 1 and f.c == 0:
            return var
        if f.a == 1:
            return f"({var} + {f.c})" if f.c > 0 else f"({var} - {-f.c})"
        core = f"{f.a} * {var}"
        if f.c:
            return f"({core} + {f.c})" if f.c > 0 else f"({core} - {-f.c})"
        return f"({core})"
    if isinstance(f, ModularF):
        inner = ifunc_src(f.g, var)
        s = f"({inner} % {f.z})"
        return f"({s} + {f.d})" if f.d else s
    if isinstance(f, ComposedF):
        return ifunc_src(f.outer, ifunc_src(f.inner, var))
    raise CodegenError(f"no source form for {type(f).__name__} ({f.name})")


def proc_src(d: Decomposition, value: str) -> str:
    """Python expression for ``proc(value)`` under *d* (Fig. 2 formulas)."""
    if isinstance(d, Block):
        return f"(({value}) // {d.b})"
    if isinstance(d, Scatter):
        return f"(({value}) % {d.pmax})"
    if isinstance(d, BlockScatter):
        return f"((({value}) // {d.b}) % {d.pmax})"
    if isinstance(d, SingleOwner):
        return str(d.owner)
    if isinstance(d, Replicated):
        return "p"  # every copy is local to its holder
    raise CodegenError(f"no proc() source for {type(d).__name__}")


def local_src(d: Decomposition, value: str) -> str:
    """Python expression for ``local(value)`` under *d*."""
    if isinstance(d, Block):
        return f"(({value}) % {d.b})"
    if isinstance(d, Scatter):
        return f"(({value}) // {d.pmax})"
    if isinstance(d, BlockScatter):
        bp = d.b * d.pmax
        return f"({d.b} * (({value}) // {bp}) + ({value}) % {d.b})"
    if isinstance(d, (SingleOwner, Replicated)):
        return f"({value})"
    raise CodegenError(f"no local() source for {type(d).__name__}")


_BINOP_PY = {
    "+": "+", "-": "-", "*": "*", "/": "/", "div": "//", "mod": "%",
    ">": ">", ">=": ">=", "<": "<", "<=": "<=", "=": "==", "!=": "!=",
    "and": "and", "or": "or",
}


def expr_src(
    expr: Expr, ref_render: Callable[[Ref], str], var: str = "i"
) -> str:
    """Python source for an expression tree.

    *ref_render* maps each data reference to its source form — e.g.
    ``lambda r: f"B_loc[{...}]"`` or a fetched temp name.
    """
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, LoopIndex):
        return var if expr.dim == 0 else f"{var}{expr.dim}"
    if isinstance(expr, Ref):
        return ref_render(expr)
    if isinstance(expr, BinOp):
        left = expr_src(expr.left, ref_render, var)
        right = expr_src(expr.right, ref_render, var)
        if expr.op in ("min", "max"):
            return f"{expr.op}({left}, {right})"
        return f"({left} {_BINOP_PY[expr.op]} {right})"
    if isinstance(expr, UnOp):
        inner = expr_src(expr.operand, ref_render, var)
        if expr.op == "abs":
            return f"abs({inner})"
        if expr.op == "not":
            return f"(not {inner})"
        return f"(-{inner})"
    raise CodegenError(f"cannot render expression node {type(expr).__name__}")


#: operators whose scalar Python spelling (builtin min/max, short-circuit
#: and/or/not) does not broadcast over ndarrays — the fused kernel source
#: (:mod:`repro.pipeline.kernels`) uses the element-wise NumPy
#: counterparts instead.
_VEC_CALLS = {
    "min": "_np.minimum",
    "max": "_np.maximum",
    "and": "_np.logical_and",
    "or": "_np.logical_or",
}
