"""V-cal expressions (paper Section 2.4).

Multi-dimensional operations in V-cal are strictly element-wise:

    ``∆(i∈J)[ip(i)](V ⊕ W) = ∆(i∈J)([ip(i)](V) + [ip(i)](W))``

so an expression is evaluated *per selected index*.  An expression tree is
built from data references ``Ref(name, imap)`` (the ``[g(i)](B)`` selections),
scalar constants, the loop indices themselves, and element-wise operators.

Expressions also serve as guards (predicates on data values, e.g.
``A[i] > 0`` in Fig. 1), in which case they evaluate to booleans.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Dict, Iterator, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from .view import IndexMap, SeparableMap

__all__ = [
    "Expr",
    "Const",
    "LoopIndex",
    "Ref",
    "BinOp",
    "UnOp",
    "Op",
    "OPS",
    "REDUCIBLE",
    "UNARY_OPS",
    "KERNEL_NAMES",
    "eval_fetched",
]

Index = Tuple[int, ...]
Env = Mapping[str, "object"]  # name -> numpy array (or nested sequence)


class Op(NamedTuple):
    """One element-wise operator: how every tier computes and spells it.

    ``fn`` computes it on scalars (the evaluator, the scalar templates and
    the emitted SPMD source, which calls it by name when ``py`` does);
    ``py`` is its source template in the emitted SPMD source and ``np``
    the NumPy ufunc the fused kernels call (``_np.<np>(..., out=_s[k])``,
    :data:`KERNEL_NAMES`); ``identity`` is set on the reducible ops.
    """

    fn: Callable
    py: str
    np: str
    identity: Optional[float] = None


def _infix(fn: Callable, sym: str, ufunc: str,
           identity: Optional[float] = None) -> Op:
    return Op(fn, f"({{}} {sym} {{}})", ufunc, identity)


def _call(fn: Callable, ufunc: str, identity: Optional[float] = None) -> Op:
    return Op(fn, fn.__name__ + "({}, {})", ufunc, identity)


# Every op follows NumPy's rule on scalars: a NaN operand of min/max
# wins and a tie is the second operand (Python's min/max keep the first
# and drop a NaN that comes second); and/or/not give booleans; a zero
# divisor gives NumPy's inf, NaN or 0 (Python raises).  The operator
# callables of + - * and the comparisons already give NumPy's bits.
# Their callers hold np.errstate(all="ignore"), one per clause.

def _minimum(a, b):
    return a if a < b or a != a else b


def _maximum(a, b):
    return a if a > b or a != a else b


def _logical_and(a, b):
    return bool(a) and bool(b)


def _logical_or(a, b):
    return bool(a) or bool(b)


def _true_divide(a, b):
    return a / b if b else np.true_divide(a, b)


def _floor_divide(a, b):
    return a // b if b else np.floor_divide(a, b)


def _remainder(a, b):
    return a % b if b else np.remainder(a, b)


OPS: Dict[str, Op] = {
    "+": _infix(operator.add, "+", "add", 0.0),
    "-": _infix(operator.sub, "-", "subtract"),
    "*": _infix(operator.mul, "*", "multiply", 1.0),
    "/": _call(_true_divide, "true_divide"),
    "div": _call(_floor_divide, "floor_divide"),
    "mod": _call(_remainder, "remainder"),
    "min": _call(_minimum, "minimum", math.inf),
    "max": _call(_maximum, "maximum", -math.inf),
    ">": _infix(operator.gt, ">", "greater"),
    ">=": _infix(operator.ge, ">=", "greater_equal"),
    "<": _infix(operator.lt, "<", "less"),
    "<=": _infix(operator.le, "<=", "less_equal"),
    "=": _infix(operator.eq, "==", "equal"),
    "!=": _infix(operator.ne, "!=", "not_equal"),
    "and": _call(_logical_and, "logical_and"),
    "or": _call(_logical_or, "logical_or"),
}

#: the associative-commutative ops a reduction folds with
REDUCIBLE = frozenset(k for k, op in OPS.items() if op.identity is not None)

UNARY_OPS: Dict[str, Op] = {
    "-": Op(operator.neg, "(-{})", "negative"),
    "not": Op(operator.not_, "(not {})", "logical_not"),
    "abs": Op(abs, "abs({})", "absolute"),
}

#: every name a fused kernel's source may bind or read: the NumPy module
#: its ufuncs hang off, the loop index grids, the read rows, the scratch
#: slots and the two functions it defines
KERNEL_NAMES = ("_np", "_i", "_r", "_s", "_rhs", "_guard")


class Expr:
    """Base class of element-wise V-cal expressions."""

    def eval(self, idx: Index, env: Env):
        """Value of the expression at loop index *idx* under *env*."""
        raise NotImplementedError

    def refs(self) -> Iterator["Ref"]:
        """All data references in the tree (pre-order)."""
        raise NotImplementedError

    # operator sugar -------------------------------------------------------
    def __add__(self, other):
        return BinOp("+", self, _lift(other))

    def __sub__(self, other):
        return BinOp("-", self, _lift(other))

    def __mul__(self, other):
        return BinOp("*", self, _lift(other))

    def __gt__(self, other):
        return BinOp(">", self, _lift(other))

    def __lt__(self, other):
        return BinOp("<", self, _lift(other))


def _lift(v) -> "Expr":
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float, bool)):
        return Const(v)
    raise TypeError(f"cannot lift {type(v).__name__} to Expr")


class Const(Expr):
    """A scalar constant."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def eval(self, idx: Index, env: Env):
        return self.value

    def refs(self) -> Iterator["Ref"]:
        return iter(())

    def __repr__(self) -> str:
        return repr(self.value)


class LoopIndex(Expr):
    """The loop index itself (dimension *dim* of the selected index)."""

    __slots__ = ("dim",)

    def __init__(self, dim: int = 0):
        self.dim = dim

    def eval(self, idx: Index, env: Env):
        return idx[self.dim]

    def refs(self) -> Iterator["Ref"]:
        return iter(())

    def __repr__(self) -> str:
        return f"i{self.dim}" if self.dim else "i"


class Ref(Expr):
    """A data reference ``[imap(i)](name)`` — e.g. ``B[g(i)]``.

    ``imap`` maps the loop index tuple to the array index tuple.  For the
    canonical 1-D clause of the paper this is a :class:`SeparableMap` with a
    single scalar access function ``g``.
    """

    __slots__ = ("name", "imap")

    def __init__(self, name: str, imap: IndexMap):
        self.name = name
        self.imap = imap

    def array_index(self, idx: Index) -> Index:
        return self.imap(idx)

    def eval(self, idx: Index, env: Env):
        arr = env[self.name]
        ai = self.imap(idx)
        return arr[ai if len(ai) > 1 else ai[0]]

    def refs(self) -> Iterator["Ref"]:
        yield self

    def scalar_func(self):
        """The scalar access function, for 1-D separable references."""
        from .view import ProjectedMap

        if isinstance(self.imap, SeparableMap) and self.imap.dim == 1:
            return self.imap.dim_func(0)
        if (
            isinstance(self.imap, ProjectedMap)
            and len(self.imap.funcs) == 1
            and self.imap.dims == (0,)
        ):
            return self.imap.dim_func(0)
        raise ValueError(f"reference {self!r} is not 1-D separable")

    def __repr__(self) -> str:
        return f"{self.name}[{self.imap.name}]"


class BinOp(Expr):
    """Element-wise binary operation."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in OPS:
            raise ValueError(f"unknown operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def eval(self, idx: Index, env: Env):
        return OPS[self.op].fn(self.left.eval(idx, env),
                               self.right.eval(idx, env))

    def refs(self) -> Iterator["Ref"]:
        yield from self.left.refs()
        yield from self.right.refs()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class UnOp(Expr):
    """Element-wise unary operation."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr):
        if op not in UNARY_OPS:
            raise ValueError(f"unknown unary operator {op!r}")
        self.op = op
        self.operand = operand

    def eval(self, idx: Index, env: Env):
        return UNARY_OPS[self.op].fn(self.operand.eval(idx, env))

    def refs(self) -> Iterator["Ref"]:
        yield from self.operand.refs()

    def __repr__(self) -> str:
        return f"({self.op} {self.operand!r})"


def eval_fetched(expr, idx: Index, by_ref: Dict[int, float]):
    """Evaluate an expression tree with every data reference resolved to
    its pre-fetched value (local load or received message), keyed by the
    identity of the Ref node — exact, regardless of how many times the
    same array appears with different access functions."""
    if isinstance(expr, Ref):
        return by_ref[id(expr)]
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, LoopIndex):
        return idx[expr.dim]
    if isinstance(expr, BinOp):
        return OPS[expr.op].fn(
            eval_fetched(expr.left, idx, by_ref),
            eval_fetched(expr.right, idx, by_ref),
        )
    if isinstance(expr, UnOp):
        return UNARY_OPS[expr.op].fn(eval_fetched(expr.operand, idx, by_ref))
    raise TypeError(f"cannot evaluate expression node {type(expr).__name__}")
