"""E16 (ablation) — what a ghost margin buys over the general template.

For a radius-r stencil on pmax nodes of plain ``Block``s, both through
``run_distributed``:

* ``backend="scalar"``, the general §2.10 template, sends one message
  per (read, iteration) pair crossing a boundary — ``(pmax - 1) r (r +
  1)`` messages per application, shipping boundary elements
  *repeatedly* (once per consuming iteration);
* ``backend="fused"`` derives the ghost margin of each node from the
  image keys (``(r, r)`` on an interior node) and lands one strip per
  (read, boundary) in it: ``2 r (pmax - 1)`` messages; a strip two
  reads share is not yet sent once, so the elements stay ``r (r + 1)
  (pmax - 1)``.

The closed-form columns are the target that sharing strips (ROADMAP
1b) will be measured against: a hand-coalesced exchange — one strip per
neighbour, each boundary element shipped exactly once — moves ``2 (pmax
- 1)`` messages of ``r`` elements.
"""

import numpy as np
import pytest

from repro.codegen import compile_clause, run_distributed
from repro.core import (
    AffineF,
    BinOp,
    Clause,
    IndexSet,
    Ref,
    SeparableMap,
    copy_env,
    evaluate_clause,
)
from repro.decomp import Block

from .conftest import print_table

N, PMAX = 512, 8


def stencil(radius):
    terms = [Ref("U", SeparableMap([AffineF(1, c)]))
             for c in range(-radius, radius + 1)]
    rhs = terms[0]
    for t in terms[1:]:
        rhs = BinOp("+", rhs, t)
    return Clause(
        domain=IndexSet.range1d(radius, N - 1 - radius),
        lhs=Ref("V", SeparableMap([AffineF(1, 0)])),
        rhs=rhs,
    )


def env_for(rng):
    return {"U": rng.random(N), "V": np.zeros(N)}


def test_message_discipline_ablation(rng):
    rows = []
    for radius in (1, 2, 4, 8):
        cl = stencil(radius)
        env0 = env_for(rng)
        ref = evaluate_clause(cl, copy_env(env0))["V"]
        plan = compile_clause(cl, {"U": Block(N, PMAX), "V": Block(N, PMAX)})

        # general template
        m_g = run_distributed(plan, copy_env(env0))
        assert np.allclose(m_g.collect("V"), ref)

        # derived ghost cells, through the same dispatcher
        m_f = run_distributed(plan, copy_env(env0), backend="fused")
        assert np.array_equal(m_f.collect("V"), ref)
        assert plan.trace.notes == []
        assert plan.kernels.dist[PMAX // 2].margins == \
            {"U": ((radius, radius),)}

        rows.append([
            radius,
            m_g.stats.total_messages(), m_f.stats.total_messages(),
            2 * (PMAX - 1),
            m_g.stats.total_elements_moved(),
            m_f.stats.total_elements_moved(),
            2 * radius * (PMAX - 1),
        ])
    bound = "coalesced bound (ROADMAP 1b)"
    print_table(
        f"E16 (ablation): per-element vs ghost-margin exchange, n={N}, "
        f"pmax={PMAX}",
        ["stencil radius", "scalar msgs", "fused msgs", f"{bound} msgs",
         "scalar elements", "fused elements", f"{bound} elements"],
        rows,
    )
    for radius, g_msgs, f_msgs, _, g_el, f_el, b_el in rows:
        # general template: one message per (read, iteration) crossing a
        # boundary — sum_{c=1..r} c per direction per boundary
        assert g_msgs == (PMAX - 1) * radius * (radius + 1)
        assert g_el == g_msgs  # one element per envelope, duplicates and all
        # derived margins: one strip per (read, boundary), not yet shared
        assert f_msgs == 2 * radius * (PMAX - 1)
        assert f_el == radius * (radius + 1) * (PMAX - 1)
        assert b_el <= f_el


@pytest.mark.parametrize("backend", ["scalar", "fused"])
@pytest.mark.parametrize("radius", [1, 8])
def test_stencil_application_timing(benchmark, backend, radius, rng):
    env0 = env_for(rng)
    plan = compile_clause(stencil(radius),
                          {"U": Block(N, PMAX), "V": Block(N, PMAX)})
    m = benchmark(
        lambda: run_distributed(plan, copy_env(env0), backend=backend))
    assert m.stats.total_updates() == N - 2 * radius
