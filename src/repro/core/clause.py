"""Clauses and parameter expressions (paper Sections 2.4-2.5).

A *parameter expression* ``∆(i ∈ J) ◊ body`` is the paper's abstract loop,
generalizing all DO-loop forms; the ordering operator ``◊`` is either

* ``SEQ`` (the paper's ``•``) — lexicographic order, or
* ``PAR`` (the paper's ``//``) — no ordering, parallel execution legal.

A *clause* incorporates a view expression and an assignment and defines a
state-to-state transformation:

    ``∆(i ∈ J) ◊ ([f(i)](A) := Expr([g(i)](B), ...))``

which is exactly the canonical form Eq. (1) that SPMD generation starts
from.  The optional *guard* expression restricts the index set with a
data-dependent predicate, as in Fig. 1's ``A[i] > 0``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

from .expr import Expr, Ref
from .indexset import IndexSet

__all__ = ["Ordering", "SEQ", "PAR", "Clause", "Program"]

Index = Tuple[int, ...]


class Ordering(enum.Enum):
    """The ``◊`` ordering operator."""

    SEQ = "•"
    PAR = "//"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


SEQ = Ordering.SEQ
PAR = Ordering.PAR


@dataclass(frozen=True)
class Clause:
    """``∆(i ∈ domain) ◊ (lhs := rhs)`` with an optional data guard.

    Frozen: the frontend's translation memo and the plan/program caches
    share one clause object between every caller of the same text, so
    a variant is built with ``dataclasses.replace``."""

    domain: IndexSet
    lhs: Ref
    rhs: Expr
    ordering: Ordering = PAR
    guard: Optional[Expr] = None
    name: str = "clause"

    def __post_init__(self) -> None:
        if self.domain.dim < 1:
            raise ValueError("clause domain must have dimension >= 1")

    # -- queries ---------------------------------------------------------------

    def reads(self) -> List[Ref]:
        """All data references read by the clause (rhs and guard)."""
        out = list(self.rhs.refs())
        if self.guard is not None:
            out.extend(self.guard.refs())
        return out

    def read_names(self) -> List[str]:
        seen: List[str] = []
        for r in self.reads():
            if r.name not in seen:
                seen.append(r.name)
        return seen

    def array_names(self) -> List[str]:
        names = [self.lhs.name]
        for n in self.read_names():
            if n not in names:
                names.append(n)
        return names

    def is_parallel(self) -> bool:
        return self.ordering is PAR

    def iter_indices(self, env=None) -> Iterator[Index]:
        """Indices of the domain, optionally filtered by the data guard.

        When *env* is None the guard is ignored (pure index-set view); with
        an environment the guard is evaluated per index, matching the
        predicate-on-data-values semantics of Section 2.4.
        """
        for idx in self.domain:
            if env is not None and self.guard is not None:
                if not self.guard.eval(idx, env):
                    continue
            yield idx

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        g = f" | {self.guard!r}" if self.guard is not None else ""
        return (
            f"∆(i ∈ {self.domain.bounds!r}{g}) {self.ordering} "
            f"({self.lhs!r} := {self.rhs!r})"
        )


@dataclass
class Program:
    """A sequential composition of clauses (the stateful part of an
    algorithm, Section 2.1: clauses execute in order, each clause's interior
    may be parallel)."""

    clauses: List[Clause] = field(default_factory=list)
    name: str = "program"

    def add(self, clause: Clause) -> "Program":
        self.clauses.append(clause)
        return self

    def array_names(self) -> List[str]:
        names: List[str] = []
        for c in self.clauses:
            for n in c.array_names():
                if n not in names:
                    names.append(n)
        return names

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __len__(self) -> int:
        return len(self.clauses)
