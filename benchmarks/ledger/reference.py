"""Hand-written NumPy references and the fallback detector.

References never come from the compiler under test.  Each function
here is the clause written out by hand in NumPy, keeping the clause's
association order so the comparison is bit-for-bit
(``np.array_equal``).  The sequential evaluator in ``repro.core`` is
too slow to run per op at benchmark sizes, so :func:`cross_check`
compares each reference with it once, in set-up, at a reduced size.

The second half turns a silent change of backend into a failed op: a
``fell back`` note on a plan or program trace, or an ``mp`` run whose
``runtime_stats`` do not name distinct worker processes.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Iterable, List, Optional

import numpy as np

__all__ = [
    "ReferenceMismatch",
    "affine_read",
    "cross_check",
    "e13",
    "e19_step",
    "e19_steps",
    "fallback_notes",
    "mp_worker_fault",
]


class ReferenceMismatch(AssertionError):
    """A NumPy reference disagrees with the sequential evaluator."""


def e13(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """E13, ``A[i] := B[i-1] + B[i+1]`` for ``1 <= i <= n-2``."""
    out = a.copy()
    out[1:-1] = b[:-2] + b[2:]
    return out


def affine_read(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``A[i] := B[2*i+1] + 1`` for ``0 <= i < len(A)``, ``len(B) = 2 len(A)``."""
    out = a.copy()
    out[:] = b[1::2] + 1.0
    return out


def e19_step(s: np.ndarray, t: np.ndarray) -> None:
    """One E19 five-point step in place: ``T[i,j] := 0.25 * ((S[i-1,j] +
    S[i+1,j]) + (S[i,j-1] + S[i,j+1]))`` on the interior of ``T``."""
    t[1:-1, 1:-1] = 0.25 * ((s[:-2, 1:-1] + s[2:, 1:-1])
                            + (s[1:-1, :-2] + s[1:-1, 2:]))


def e19_steps(s: np.ndarray, t: np.ndarray, steps: int) -> None:
    """*steps* alternating clause executions in place: ``S -> T``, then
    ``T -> S``, ... — the double-buffer idiom of ``halo-steps`` (and of
    ``timeloop-mp``, whose per-step swap renames the buffers instead)."""
    for _ in range(steps):
        e19_step(s, t)
        s, t = t, s


def cross_check(clauses: Iterable[object], env: Dict[str, np.ndarray],
                expected: Dict[str, np.ndarray]) -> float:
    """Evaluate *clauses* in order with the sequential evaluator on a
    copy of *env* and require every array in *expected* to be
    bit-identical; returns the seconds the evaluator took."""
    from repro.core import copy_env, evaluate_clause

    got = copy_env(env)
    t0 = time.perf_counter()
    for clause in clauses:
        evaluate_clause(clause, got)
    spent = time.perf_counter() - t0
    for name, want in expected.items():
        if not np.array_equal(got[name], want):
            raise ReferenceMismatch(
                f"NumPy reference for {name!r} differs from "
                "repro.core.evaluate_clause at the cross-check size")
    return spent


_FALLBACK_MARKS = ("fell back", "driving clauses individually",
                   "running the vector backend")


def fallback_notes(*traces: object) -> List[str]:
    """Every trace note that says a run left the requested backend."""
    out: List[str] = []
    for trace in traces:
        for note in getattr(trace, "notes", None) or ():
            if any(mark in note for mark in _FALLBACK_MARKS):
                out.append(note)
    return out


def mp_worker_fault(machine: object, processes: int) -> Optional[str]:
    """Why an ``mp`` result did *not* come from *processes* distinct
    worker processes, or ``None`` when it did."""
    stats = getattr(machine, "runtime_stats", None)
    if not stats:
        return "mp run returned no runtime_stats (not the worker pool)"
    pids = {s.pid for s in stats}
    if os.getpid() in pids:
        return "mp run executed in the harness process"
    if len(pids) != processes:
        return f"mp run used {len(pids)} worker pid(s), wanted {processes}"
    return None
