"""Sequential reference evaluator for V-cal clauses and programs.

This is the semantic oracle of the reproduction: every generated SPMD
program (shared- or distributed-memory, any decomposition, optimized or
naive) must produce exactly the state this evaluator produces.

Evaluation is two-phase for parallel (``//``) clauses — all right-hand
sides are evaluated against the *pre*-state before any assignment lands —
matching the paper's requirement that ``//`` clauses be independent
(Section 2.1's state-less mappings).  Sequential (``•``) clauses evaluate
in lexicographic order with immediate assignment, which is what DOACROSS
degenerates to on one processor.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .clause import Clause, Ordering, Program

__all__ = ["evaluate_clause", "evaluate_program", "copy_env", "matches_reference",
           "WriteConflictError"]

Env = Dict[str, np.ndarray]


class WriteConflictError(RuntimeError):
    """Two iterations of a ``//`` clause wrote the same element."""


def copy_env(env: Env) -> Env:
    """Deep-copy an environment of numpy arrays."""
    return {k: np.array(v, copy=True) for k, v in env.items()}


def matches_reference(got, ref) -> bool:
    """A run's verdict: bit-identity to the evaluator up to NaN payloads
    and the sign of zero (every tier computes an operator the same way,
    so a tolerance would only hide a disagreement)."""
    return bool(np.array_equal(got, ref, equal_nan=True))


def _store(arr: np.ndarray, idx: Tuple[int, ...], value) -> None:
    arr[idx if len(idx) > 1 else idx[0]] = value


def evaluate_clause(clause: Clause, env: Env, check_conflicts: bool = False) -> Env:
    """Evaluate one clause in place; returns *env* for chaining.

    With ``check_conflicts=True`` a ``//`` clause that writes the same
    array element from two different loop indices raises
    :class:`WriteConflictError` — the independence premise of parallel
    ordering, useful in tests.
    """
    target = env[clause.lhs.name]
    with np.errstate(all="ignore"):  # the operator table's results
        if clause.ordering is Ordering.PAR:
            # Evaluate all rhs against the pre-state, then commit.
            pending: List[Tuple[Tuple[int, ...], object]] = []
            seen = set() if check_conflicts else None
            for idx in clause.iter_indices(env):
                ai = clause.lhs.array_index(idx)
                if seen is not None:
                    if ai in seen:
                        raise WriteConflictError(
                            f"clause {clause.name!r}: duplicate write to "
                            f"{clause.lhs.name}[{ai}]"
                        )
                    seen.add(ai)
                pending.append((ai, clause.rhs.eval(idx, env)))
            for ai, value in pending:
                _store(target, ai, value)
        else:
            for idx in clause.iter_indices(env):
                ai = clause.lhs.array_index(idx)
                _store(target, ai, clause.rhs.eval(idx, env))
    return env


def evaluate_program(
    program: Program, env: Env, check_conflicts: bool = False
) -> Env:
    """Evaluate a program (clauses in order) in place."""
    for clause in program:
        evaluate_clause(clause, env, check_conflicts=check_conflicts)
    return env
