"""Automatic decomposition selection.

The paper automates everything *after* the decomposition is chosen; the
obvious next layer — which occupied the field for the following decade
(Kennedy & Kremer's automatic data layout, HPF's ``DISTRIBUTE`` advice)
— is choosing the decomposition itself.  This module implements two
honest selectors on top of the reproduction's machinery:

* :func:`choose_static` — enumerate candidate assignments (block /
  scatter / BS(b) / replicated-for-read-only arrays), *execute each on
  the simulator*, and rank by modeled makespan under a
  :class:`~repro.machine.costmodel.CostModel`.  No analytic shortcuts:
  the cost of an assignment is measured on the generated programs.
* :func:`choose_dynamic` — per-phase assignment by dynamic programming:
  state = decomposition assignment of all arrays, transition cost =
  modeled cost of the automatically generated redistribution between
  phases.  Finds schedules like "block for the stencil phase, scatter
  for the triangular phase" that no static assignment can match.

Search is exhaustive over the candidate product — fine for the handful
of arrays a clause touches (the intended granularity); the candidate
generator caps block-scatter sizes to keep the space small.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.clause import Clause, Program
from ..decomp.base import Decomposition
from ..decomp.block import Block
from ..decomp.blockscatter import BlockScatter
from ..decomp.dynamic import plan_redistribution
from ..decomp.replicated import Replicated
from ..decomp.scatter import Scatter
from ..machine.costmodel import CostModel
from .dist_tmpl import run_distributed
from .plan import compile_clause

__all__ = [
    "candidate_decompositions",
    "assignment_cost",
    "choose_static",
    "choose_dynamic",
    "StaticChoice",
    "DynamicChoice",
]


def candidate_decompositions(
    n: int,
    pmax: int,
    read_only: bool = False,
    bs_sizes: Sequence[int] = (2, 8),
) -> List[Decomposition]:
    """Default candidate set for one array."""
    out: List[Decomposition] = [Block(n, pmax), Scatter(n, pmax)]
    for b in bs_sizes:
        if 1 < b * pmax <= max(n, 1):
            out.append(BlockScatter(n, pmax, b))
    if read_only:
        out.append(Replicated(n, pmax))
    return out


def _writes_of(program: Program) -> set:
    return {c.lhs.name for c in program.clauses}


def assignment_cost(
    program: Program,
    decomps: Dict[str, Decomposition],
    env: Dict[str, np.ndarray],
    model: CostModel,
) -> float:
    """Measured modeled cost of running the whole program (clauses in
    order, one distributed run each) under one assignment."""
    total = 0.0
    state = {k: np.array(v, copy=True) for k, v in env.items()}
    for clause in program.clauses:
        plan = compile_clause(clause, decomps)
        machine = run_distributed(plan, state)
        total += model.makespan(machine.stats)
        state[plan.write_name] = machine.collect(plan.write_name)
    return total


@dataclass
class StaticChoice:
    """Result of the static search."""

    best: Dict[str, Decomposition]
    cost: float
    ranking: List[Tuple[Dict[str, Decomposition], float]] = field(
        default_factory=list
    )

    def describe(self) -> str:
        return ", ".join(f"{k}={_label(d)}" for k, d in sorted(self.best.items()))


def _label(d: Decomposition) -> str:
    if isinstance(d, Replicated):
        return "replicated"
    if isinstance(d, Block):
        return "block"
    if isinstance(d, Scatter):
        return "scatter"
    if isinstance(d, BlockScatter):
        return f"BS({d.b})"
    return d.kind


def choose_static(
    program: Program,
    env: Dict[str, np.ndarray],
    pmax: int,
    model: CostModel,
    candidates: Optional[Dict[str, List[Decomposition]]] = None,
) -> StaticChoice:
    """Exhaustively search one assignment for the whole program."""
    names = program.array_names()
    writes = _writes_of(program)
    if candidates is None:
        candidates = {
            name: candidate_decompositions(
                len(env[name]), pmax, read_only=name not in writes
            )
            for name in names
        }
    best: Optional[Dict[str, Decomposition]] = None
    best_cost = float("inf")
    ranking: List[Tuple[Dict[str, Decomposition], float]] = []
    for combo in itertools.product(*(candidates[n] for n in names)):
        decomps = dict(zip(names, combo))
        cost = assignment_cost(program, decomps, env, model)
        ranking.append((decomps, cost))
        if cost < best_cost:
            best, best_cost = decomps, cost
    ranking.sort(key=lambda t: t[1])
    assert best is not None
    return StaticChoice(best, best_cost, ranking)


# ---------------------------------------------------------------------------
# phase-wise dynamic programming with redistribution
# ---------------------------------------------------------------------------

def _redistribution_cost(
    old: Dict[str, Decomposition],
    new: Dict[str, Decomposition],
    model: CostModel,
) -> float:
    """Modeled cost of moving every array from *old* to *new* layout."""
    total = 0.0
    for name, src in old.items():
        dst = new[name]
        if src is dst:
            continue
        plan = plan_redistribution(src, dst)  # O(P²) keys; checks both
        if isinstance(src, Replicated) or isinstance(dst, Replicated):
            # replication changes are a broadcast/collapse: charge the
            # full volume once
            total += model.alpha * (src.pmax - 1) + model.beta * src.n
            continue
        total += (model.alpha * plan.message_count()
                  + model.beta * plan.moved_elements())
    return total


@dataclass
class DynamicChoice:
    """Result of the phase-wise DP."""

    per_phase: List[Dict[str, Decomposition]]
    cost: float
    static_cost: float

    def describe(self) -> str:
        lines = []
        for k, assign in enumerate(self.per_phase):
            inner = ", ".join(
                f"{n}={_label(d)}" for n, d in sorted(assign.items())
            )
            lines.append(f"phase {k}: {inner}")
        return "\n".join(lines)


def choose_dynamic(
    program: Program,
    env: Dict[str, np.ndarray],
    pmax: int,
    model: CostModel,
    candidates: Optional[Dict[str, List[Decomposition]]] = None,
) -> DynamicChoice:
    """Per-phase assignments by DP over (phase, assignment) states.

    Phase costs are measured on the simulator (with representative data
    propagated through the phases); transition costs are modeled
    redistribution.  Also reports the best *static* assignment cost for
    comparison.
    """
    names = program.array_names()
    writes = _writes_of(program)
    if candidates is None:
        candidates = {
            name: candidate_decompositions(
                len(env[name]), pmax, read_only=name not in writes
            )
            for name in names
        }
    states: List[Dict[str, Decomposition]] = [
        dict(zip(names, combo))
        for combo in itertools.product(*(candidates[n] for n in names))
    ]

    # measured per-phase costs, with data state propagated once
    phase_costs: List[List[float]] = []
    data = {k: np.array(v, copy=True) for k, v in env.items()}
    for clause in program.clauses:
        row = []
        result = None
        for st in states:
            plan = compile_clause(clause, st)
            machine = run_distributed(plan, data)
            row.append(model.makespan(machine.stats))
            if result is None:
                result = machine.collect(plan.write_name)
        phase_costs.append(row)
        data[clause.lhs.name] = result
    # DP
    n_states = len(states)
    INF = float("inf")
    dp = [phase_costs[0][s] for s in range(n_states)]
    back: List[List[int]] = []
    for k in range(1, len(program.clauses)):
        nxt = [INF] * n_states
        arg = [0] * n_states
        for s, st in enumerate(states):
            for s0, st0 in enumerate(states):
                cost = dp[s0] + _redistribution_cost(st0, st, model) + \
                    phase_costs[k][s]
                if cost < nxt[s]:
                    nxt[s] = cost
                    arg[s] = s0
        dp = nxt
        back.append(arg)
    # reconstruct
    s = min(range(n_states), key=lambda i: dp[i])
    total = dp[s]
    path = [s]
    for arg in reversed(back):
        s = arg[s]
        path.append(s)
    path.reverse()
    per_phase = [states[s] for s in path]

    static_cost = min(
        sum(phase_costs[k][s] for k in range(len(program.clauses)))
        for s in range(n_states)
    )
    return DynamicChoice(per_phase, total, static_cost)
