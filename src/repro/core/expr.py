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

import operator
from typing import Callable, Dict, Iterator, Mapping, Sequence, Tuple

from .view import IndexMap, SeparableMap

__all__ = [
    "Expr",
    "Const",
    "LoopIndex",
    "Ref",
    "BinOp",
    "UnOp",
    "OPS",
    "UNARY_OPS",
    "eval_fetched",
]

Index = Tuple[int, ...]
Env = Mapping[str, "object"]  # name -> numpy array (or nested sequence)


OPS: Dict[str, Callable] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "div": operator.floordiv,
    "mod": operator.mod,
    "min": min,
    "max": max,
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    "!=": operator.ne,
    "and": lambda a, b: bool(a) and bool(b),
    "or": lambda a, b: bool(a) or bool(b),
}

UNARY_OPS: Dict[str, Callable] = {
    "-": operator.neg,
    "not": operator.not_,
    "abs": abs,
}


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
        return OPS[self.op](self.left.eval(idx, env), self.right.eval(idx, env))

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
        return UNARY_OPS[self.op](self.operand.eval(idx, env))

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
        return OPS[expr.op](
            eval_fetched(expr.left, idx, by_ref),
            eval_fetched(expr.right, idx, by_ref),
        )
    if isinstance(expr, UnOp):
        return UNARY_OPS[expr.op](eval_fetched(expr.operand, idx, by_ref))
    raise TypeError(f"cannot evaluate expression node {type(expr).__name__}")
