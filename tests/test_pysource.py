"""Tests for generated Python node-program source (paper's program
generation, §2.9-2.10 templates as real emitted code)."""

import numpy as np
import pytest

from repro.codegen import (
    compile_clause,
    compile_distributed,
    compile_shared,
    emit_distributed_source,
    emit_shared_source,
    run_distributed,
)
from repro.core import (
    AffineF,
    Clause,
    IdentityF,
    IndexSet,
    ModularF,
    Ref,
    SeparableMap,
    copy_env,
    evaluate_clause,
)
from repro.decomp import Block, BlockScatter, Replicated, Scatter, SingleOwner
from repro.machine import DistributedMachine, SharedMachine


def mk(n=20, f=None, g=None, guard=None, lo=0, hi=None):
    f = f or AffineF(1, 0)
    g = g or AffineF(1, 0)
    return Clause(
        domain=IndexSet.range1d(lo, hi if hi is not None else n - 1),
        lhs=Ref("A", SeparableMap([f])),
        rhs=Ref("B", SeparableMap([g])) * 2 + 1,
        guard=guard,
        name="t",
    )


def env_for(n, seed=5):
    rng = np.random.default_rng(seed)
    return {"A": rng.random(n), "B": rng.random(n)}


CASES = [
    ("block-block-id", Block, Block, AffineF(1, 0), AffineF(1, 0)),
    ("block-scatter-shift", Block, Scatter, AffineF(1, 0), AffineF(1, 1)),
    ("scatter-block-stride", Scatter, Block, AffineF(2, 1), AffineF(1, 0)),
    ("bs-bs", lambda n, p: BlockScatter(n, p, 2),
     lambda n, p: BlockScatter(n, p, 3), AffineF(1, 0), AffineF(1, 2)),
    ("rotate-read", Block, Scatter, AffineF(1, 0),
     ModularF(AffineF(1, 6), 20)),
    ("single-owner", lambda n, p: SingleOwner(n, p, 2), Block,
     AffineF(1, 0), AffineF(1, 0)),
    ("replicated-read", Scatter, lambda n, p: Replicated(n, p),
     AffineF(1, 0), AffineF(1, 3)),
]


def _fit_domain(f, g, n):
    cand = [
        i for i in range(n)
        if 0 <= f(i) < n and 0 <= g(i) < n
    ]
    return min(cand), max(cand)


class TestGeneratedDistributed:
    @pytest.mark.parametrize("name,mkA,mkB,f,g", CASES)
    def test_equals_interpreter_template(self, name, mkA, mkB, f, g):
        n, pmax = 20, 4
        lo, hi = _fit_domain(f, g, n)
        cl = mk(n=n, f=f, g=g, lo=lo, hi=hi)
        dA, dB = mkA(n, pmax), mkB(n, pmax)
        plan = compile_clause(cl, {"A": dA, "B": dB})
        env0 = env_for(n)
        ref = evaluate_clause(cl, copy_env(env0))

        src, factory = compile_distributed(plan)
        m = DistributedMachine(pmax)
        m.place("A", env0["A"], dA)
        m.place("B", env0["B"], dB)
        m.run(factory)
        assert np.allclose(m.collect("A"), ref["A"]), name

        # interpreter template agrees, including message counts
        m2 = run_distributed(plan, copy_env(env0))
        assert m.stats.total_messages() == m2.stats.total_messages(), name

    def test_source_mirrors_paper_template(self):
        plan = compile_clause(
            mk(), {"A": Block(20, 4), "B": Scatter(20, 4)}
        )
        src = emit_distributed_source(plan)
        # structure of the §2.10 template
        assert "def node_program(ctx, RT):" in src
        assert "p = ctx.p" in src
        assert "send phase" in src
        assert "update phase" in src
        assert "yield ctx.barrier()" in src
        # the chosen Table I rule is documented in the header
        assert "[rule block]" in src

    def test_guard_emitted(self):
        guard = Ref("A", SeparableMap([IdentityF()])) > 0
        plan = compile_clause(
            mk(guard=guard), {"A": Block(20, 4), "B": Block(20, 4)}
        )
        src = emit_distributed_source(plan)
        assert "if not (" in src

    def test_no_membership_scan_in_generated_code(self):
        # The generated text loops over RT segments; the full index range
        # never appears as a literal loop (the §3-intro naive pattern).
        plan = compile_clause(
            mk(), {"A": BlockScatter(20, 4, 2), "B": Scatter(20, 4)}
        )
        src = emit_distributed_source(plan)
        assert "RT.segments" in src
        imin, imax = plan.loop_bounds[0]
        assert f"range({imin}, {imax + 1})" not in src

    def test_guarded_distributed_execution(self):
        n, pmax = 20, 4
        guard = Ref("A", SeparableMap([IdentityF()])) > 0.4
        cl = mk(n=n, guard=guard)
        dA, dB = Block(n, pmax), Scatter(n, pmax)
        plan = compile_clause(cl, {"A": dA, "B": dB})
        env0 = env_for(n)
        ref = evaluate_clause(cl, copy_env(env0))
        src, factory = compile_distributed(plan)
        m = DistributedMachine(pmax)
        m.place("A", env0["A"], dA)
        m.place("B", env0["B"], dB)
        m.run(factory)
        assert np.allclose(m.collect("A"), ref["A"])


class TestGeneratedShared:
    @pytest.mark.parametrize("name,mkA,mkB,f,g", CASES)
    def test_equals_reference(self, name, mkA, mkB, f, g):
        n, pmax = 20, 4
        lo, hi = _fit_domain(f, g, n)
        cl = mk(n=n, f=f, g=g, lo=lo, hi=hi)
        dA, dB = mkA(n, pmax), mkB(n, pmax)
        plan = compile_clause(cl, {"A": dA, "B": dB})
        env0 = env_for(n)
        ref = evaluate_clause(cl, copy_env(env0))
        src, phase = compile_shared(plan)
        m = SharedMachine(pmax, copy_env(env0))
        m.run_phase(lambda p: phase(p, m.env))
        assert np.allclose(m.env["A"], ref["A"]), name

    def test_source_mirrors_paper_template(self):
        plan = compile_clause(mk(), {"A": Block(20, 4), "B": Block(20, 4)})
        src = emit_shared_source(plan)
        assert "def node_phase(p, env, RT):" in src
        assert "forall i in Modify_p" in src
        # block + affine write: the Table I bounds appear as inline
        # arithmetic, not as a runtime call
        assert "segs_w" in src
        assert "block bounds" in src
        assert "RT.segments" not in src

    def test_direct_global_addressing(self):
        # shared-memory code addresses env['B'][g(i)] directly — no
        # local() remapping, no sends
        plan = compile_clause(mk(g=AffineF(1, 2), hi=17),
                              {"A": Block(20, 4), "B": Scatter(20, 4)})
        src = emit_shared_source(plan)
        assert "env['B'][(i + 2)]" in src
        assert "send" not in src
