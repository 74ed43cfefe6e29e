"""AST of the Fig. 1 imperative mini-language.

Every node is immutable — frozen dataclasses, statement bodies as
tuples — so :func:`~repro.frontend.parser.parse` can hand one memoized
tree to every caller that submits the same text.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Node", "Num", "Var", "Bin", "Un", "Subscript",
    "Assign", "If", "For", "Block", "ViewDecl",
]


class Node:
    """Base class of all AST nodes."""


@dataclass(frozen=True)
class Num(Node):
    value: int


@dataclass(frozen=True)
class Var(Node):
    name: str


@dataclass(frozen=True)
class Bin(Node):
    op: str
    left: Node
    right: Node


@dataclass(frozen=True)
class Un(Node):
    op: str
    operand: Node


@dataclass(frozen=True)
class Subscript(Node):
    """``A[e]`` or ``A[e1, e2]``."""

    name: str
    indices: tuple

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(self.indices))


@dataclass(frozen=True)
class Assign(Node):
    target: Subscript
    value: Node


@dataclass(frozen=True)
class If(Node):
    cond: Node
    body: tuple = ()
    orelse: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "body", tuple(self.body))
        object.__setattr__(self, "orelse", tuple(self.orelse))


@dataclass(frozen=True)
class For(Node):
    var: str
    lo: Node
    hi: Node
    order: str  # 'par' | 'seq'
    body: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "body", tuple(self.body))


@dataclass(frozen=True)
class ViewDecl(Node):
    """``view V[i, j] := A[expr, expr];`` — a Booster-style view: a named
    reindexing of another structure (paper §2.5).  ``formals`` are the
    bound index variables; ``target`` is the subscripted structure (an
    array or a previously declared view)."""

    name: str
    formals: tuple
    target: Subscript

    def __post_init__(self):
        object.__setattr__(self, "formals", tuple(self.formals))


@dataclass(frozen=True)
class Block(Node):
    """Top-level statement sequence."""

    body: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "body", tuple(self.body))
