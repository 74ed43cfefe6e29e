"""Compiling V-cal fragments to Python source text.

Three small compilers used by the node-program emitter:

* :func:`ifunc_src`   — index functions ``f(i)`` to arithmetic expressions;
* :func:`proc_src` / :func:`local_src` — a decomposition's placement
  functions applied to a value expression (inlined per decomposition kind,
  exactly the formulas of Fig. 2);
* :func:`expr_src`    — element-wise expression trees to one Python
  expression, or to straight-line NumPy ufunc calls into scratch slots
  (a fused kernel), with data references resolved through a
  caller-supplied renderer (local array subscript in shared-memory
  code, fetched temp in distributed code, lane row in a fused kernel).
"""

from __future__ import annotations

from typing import Callable

from ..core.expr import OPS, UNARY_OPS, BinOp, Const, Expr, LoopIndex, Ref, UnOp
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


def _loop_var(dim: int) -> str:
    return "i" if dim == 0 else f"i{dim}"


def expr_src(
    expr: Expr,
    ref_render: Callable[[Ref], str],
    index_render: Callable[[int], str] = _loop_var,
    slots=None,
) -> str:
    """Source for an expression tree, every operator spelled from
    :data:`~repro.core.expr.OPS`.

    Without *slots* the expression is one Python expression in the
    table's ``py`` spelling (the emitted SPMD source, scalars).  With
    *slots* (the fused kernels' ``pipeline.kernels.Slots``) every
    operator becomes a straight-line call of its ``np`` ufunc, appended
    by ``slots.call`` (which picks the ``out=`` scratch slot), and the
    return value is the source of the result — a slot, a leaf, or a
    scalar-only ufunc call.

    *ref_render* maps each data reference to its source form — e.g.
    ``lambda r: f"B_loc[{...}]"`` or a fetched temp name — and
    *index_render* loop dimension *d* to the loop index's.
    """
    if isinstance(expr, (Const, LoopIndex, Ref)):
        src = repr(expr.value) if isinstance(expr, Const) \
            else index_render(expr.dim) if isinstance(expr, LoopIndex) \
            else ref_render(expr)
        return src if slots is None else slots.leaf(expr, src)
    if isinstance(expr, (BinOp, UnOp)):
        binary = isinstance(expr, BinOp)
        op = (OPS if binary else UNARY_OPS)[expr.op]
        args = [expr_src(e, ref_render, index_render, slots) for e in (
            (expr.left, expr.right) if binary else (expr.operand,))]
        return op.py.format(*args) if slots is None \
            else slots.call(op.np, args)
    raise CodegenError(f"cannot render expression node {type(expr).__name__}")
