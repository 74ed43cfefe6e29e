"""E16 (ablation) — overlapped decompositions vs the general template.

DESIGN.md calls out the §5 future-work feature "overlapped
decompositions"; this ablation quantifies what it buys: for a radius-r
stencil on pmax nodes,

* the general §2.10 template sends one message per (read, iteration)
  pair crossing a boundary — ``(pmax - 1) r (r + 1)`` messages per
  application, shipping boundary elements *repeatedly* (once per
  consuming iteration);
* the halo discipline sends one *coalesced* strip per neighbour —
  ``2 (pmax - 1)`` messages of ``r`` elements, each boundary element
  shipped exactly once;
* ``backend="fused"`` on the same plain blocks — the one dispatcher —
  derives the ghost margin ``OverlappedBlock(halo=r)`` declares by hand
  (``(r, r)`` on an interior node) and lands one strip per (read,
  boundary) in it: ``2 r (pmax - 1)`` messages; a strip two reads share
  is not yet sent once, so the elements stay ``r (r + 1) (pmax - 1)``.

Both the message count (latency-bound on real machines) and the element
volume (bandwidth-bound) collapse.
"""

import numpy as np
import pytest

from repro.codegen import compile_clause, run_distributed
from repro.codegen.halo import compile_halo_stencil, run_halo_stencil
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
from repro.decomp import Block, OverlappedBlock

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

        # general template on plain blocks
        plan_g = compile_clause(cl, {"U": Block(N, PMAX),
                                     "V": Block(N, PMAX)})
        m_g = run_distributed(plan_g, copy_env(env0))
        assert np.allclose(m_g.collect("V"), ref)

        # halo template on overlapped blocks
        ds = {"U": OverlappedBlock(N, PMAX, halo=radius),
              "V": OverlappedBlock(N, PMAX, halo=radius)}
        plan_h = compile_halo_stencil(cl, ds)
        m_h = run_halo_stencil(plan_h, copy_env(env0))
        assert np.allclose(m_h.collect("V"), ref)

        # derived ghost cells on plain blocks, through the dispatcher
        m_f = run_distributed(plan_g, copy_env(env0), backend="fused")
        assert np.array_equal(m_f.collect("V"), ref)
        assert plan_g.trace.notes == []
        assert plan_g.kernels.dist[PMAX // 2].margins == \
            {"U": ((radius, radius),)}

        rows.append([
            radius,
            m_g.stats.total_messages(), m_h.stats.total_messages(),
            m_f.stats.total_messages(),
            m_g.stats.total_elements_moved(),
            m_h.stats.total_elements_moved(),
            m_f.stats.total_elements_moved(),
        ])
    print_table(
        f"E16 (ablation): per-element vs halo exchange, n={N}, pmax={PMAX}",
        ["stencil radius", "general msgs", "halo msgs", "fused msgs",
         "general elements", "halo elements", "fused elements"],
        rows,
    )
    for radius, g_msgs, h_msgs, f_msgs, g_el, h_el, f_el in rows:
        # general template: one message per (read, iteration) crossing a
        # boundary — sum_{c=1..r} c per direction per boundary
        assert g_msgs == (PMAX - 1) * radius * (radius + 1)
        assert g_el == g_msgs  # one element per envelope, duplicates and all
        # halo: one strip per neighbour, each boundary element shipped once
        assert h_msgs == 2 * (PMAX - 1)
        assert h_el == 2 * radius * (PMAX - 1)
        assert h_el <= g_el
        # derived margins: one strip per (read, boundary), not yet shared
        assert f_msgs == 2 * radius * (PMAX - 1)
        assert f_el == radius * (radius + 1) * (PMAX - 1)


@pytest.mark.parametrize("discipline", ["general", "halo", "fused"])
@pytest.mark.parametrize("radius", [1, 8])
def test_stencil_application_timing(benchmark, discipline, radius, rng):
    cl = stencil(radius)
    env0 = env_for(rng)
    if discipline != "halo":
        plan = compile_clause(cl, {"U": Block(N, PMAX), "V": Block(N, PMAX)})
        backend = "scalar" if discipline == "general" else "fused"

        def run():
            return run_distributed(plan, copy_env(env0), backend=backend)
    else:
        ds = {"U": OverlappedBlock(N, PMAX, halo=radius),
              "V": OverlappedBlock(N, PMAX, halo=radius)}
        plan = compile_halo_stencil(cl, ds)

        def run():
            return run_halo_stencil(plan, copy_env(env0))

    m = benchmark(run)
    assert m.stats.total_updates() == N - 2 * radius
