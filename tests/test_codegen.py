"""Tests for SPMD plan compilation and the machine templates (§2.6-2.10)."""

import numpy as np
import pytest

from repro.baselines import run_distributed_naive, run_shared_naive
from repro.codegen import (
    CodegenError,
    compile_clause,
    expr_src,
    ifunc_src,
    local_src,
    proc_src,
    run_distributed,
    run_shared,
)
from repro.core import (
    PAR,
    SEQ,
    AffineF,
    Clause,
    Const,
    ConstantF,
    IdentityF,
    IndexSet,
    LoopIndex,
    ModularF,
    Ref,
    SeparableMap,
    copy_env,
    evaluate_clause,
)
from repro.decomp import (
    Block,
    BlockScatter,
    Replicated,
    Scatter,
    SingleOwner,
)


def mk_clause(n=20, f=None, g=None, guard=None, ordering=PAR, lo=0, hi=None):
    f = f or AffineF(1, 0)
    g = g or AffineF(1, 0)
    return Clause(
        domain=IndexSet.range1d(lo, hi if hi is not None else n - 1),
        lhs=Ref("A", SeparableMap([f])),
        rhs=Ref("B", SeparableMap([g])) * 2 + 1,
        ordering=ordering,
        guard=guard,
    )


def env_for(n=20, m=None, seed=3):
    rng = np.random.default_rng(seed)
    return {"A": rng.random(n), "B": rng.random(m if m is not None else n)}


class TestPlanCompilation:
    def test_basic_plan(self):
        cl = mk_clause()
        plan = compile_clause(cl, {"A": Block(20, 4), "B": Scatter(20, 4)})
        assert plan.pmax == 4
        assert plan.write_name == "A"
        assert len(plan.reads) == 1
        assert plan.rules()["write:A"] == "block"

    def test_modify_partitions_domain(self):
        cl = mk_clause()
        plan = compile_clause(cl, {"A": Block(20, 4), "B": Block(20, 4)})
        all_idx = sorted(i for p in range(4) for (i,) in plan.modify_indices(p))
        assert all_idx == list(range(20))

    def test_owner_computes_rule(self):
        cl = mk_clause(f=AffineF(2, 1), n=40)
        plan = compile_clause(cl, {"A": Scatter(40, 4), "B": Block(20, 4)},)
        for p in range(4):
            for i in plan.modify_indices(p):
                assert plan.write.proc_of(i) == p

    def test_writers_of(self):
        cl = mk_clause()
        plan = compile_clause(cl, {"A": Block(20, 4), "B": Block(20, 4)})
        assert plan.writers_of((0,)) == [0]
        assert plan.writers_of((19,)) == [3]

    def test_writers_of_replicated(self):
        cl = mk_clause()
        plan = compile_clause(cl, {"A": Replicated(20, 4), "B": Block(20, 4)})
        assert plan.writers_of((7,)) == [0, 1, 2, 3]

    def test_2d_domain_rejected(self):
        cl = Clause(
            IndexSet.of_shape(3, 3),
            Ref("A", SeparableMap([IdentityF(), IdentityF()])),
            Const(0),
        )
        with pytest.raises(ValueError):
            compile_clause(cl, {"A": Block(9, 3)})

    def test_missing_decomposition_rejected(self):
        with pytest.raises(KeyError):
            compile_clause(mk_clause(), {"A": Block(20, 4)})

    def test_pmax_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compile_clause(
                mk_clause(), {"A": Block(20, 4), "B": Block(20, 5)}
            )

    def test_guard_reads_compiled(self):
        guard = Ref("C", SeparableMap([AffineF(1, 0)])) > 0
        cl = mk_clause(guard=guard)
        plan = compile_clause(
            cl, {"A": Block(20, 4), "B": Block(20, 4), "C": Scatter(20, 4)}
        )
        assert [r.name for r in plan.reads] == ["B", "C"]


DECOMP_GRID = [
    ("block/block", lambda n, p: Block(n, p), lambda n, p: Block(n, p)),
    ("block/scatter", lambda n, p: Block(n, p), lambda n, p: Scatter(n, p)),
    ("scatter/block", lambda n, p: Scatter(n, p), lambda n, p: Block(n, p)),
    ("scatter/scatter", lambda n, p: Scatter(n, p), lambda n, p: Scatter(n, p)),
    ("bs2/bs3", lambda n, p: BlockScatter(n, p, 2),
     lambda n, p: BlockScatter(n, p, 3)),
    ("single/block", lambda n, p: SingleOwner(n, p, 1),
     lambda n, p: Block(n, p)),
    ("block/replicated", lambda n, p: Block(n, p),
     lambda n, p: Replicated(n, p)),
]


class TestSharedTemplate:
    @pytest.mark.parametrize("name,mk_da,mk_db", DECOMP_GRID)
    def test_matches_reference(self, name, mk_da, mk_db):
        n, pmax = 24, 4
        cl = mk_clause(n=n)
        env0 = env_for(n)
        ref = evaluate_clause(cl, copy_env(env0))
        plan = compile_clause(cl, {"A": mk_da(n, pmax), "B": mk_db(n, pmax)})
        m = run_shared(plan, copy_env(env0))
        assert np.allclose(m.env["A"], ref["A"]), name

    def test_guarded_clause(self):
        n = 20
        guard = Ref("A", SeparableMap([IdentityF()])) > 0.5
        cl = mk_clause(n=n, guard=guard)
        env0 = env_for(n)
        ref = evaluate_clause(cl, copy_env(env0))
        plan = compile_clause(cl, {"A": Scatter(n, 4), "B": Block(n, 4)})
        m = run_shared(plan, copy_env(env0))
        assert np.allclose(m.env["A"], ref["A"])

    def test_seq_ordering_serializes(self):
        # A[i] := A[i-1]: sequential semantics visible through the template
        n = 10
        cl = Clause(
            IndexSet.range1d(1, n - 1),
            Ref("A", SeparableMap([IdentityF()])),
            Ref("A", SeparableMap([AffineF(1, -1)])),
            ordering=SEQ,
        )
        env0 = {"A": np.arange(1.0, n + 1)}
        ref = evaluate_clause(cl, copy_env(env0))
        plan = compile_clause(cl, {"A": Block(n, 4)})
        m = run_shared(plan, copy_env(env0))
        assert np.allclose(m.env["A"], ref["A"])
        assert list(m.env["A"]) == [1.0] * n

    def test_strided_write(self):
        # A[2i+1] under scatter: Theorem 3 territory
        n = 41
        cl = Clause(
            IndexSet.range1d(0, 19),
            Ref("A", SeparableMap([AffineF(2, 1)])),
            Ref("B", SeparableMap([IdentityF()])) * 3,
        )
        env0 = env_for(n)
        ref = evaluate_clause(cl, copy_env(env0))
        plan = compile_clause(cl, {"A": Scatter(n, 4), "B": Block(n, 4)})
        m = run_shared(plan, copy_env(env0))
        assert np.allclose(m.env["A"], ref["A"])
        assert plan.rules()["write:A"] == "thm3-cor1"

    def test_load_balance_block(self):
        n, pmax = 64, 4
        plan = compile_clause(mk_clause(n=n), {"A": Block(n, pmax),
                                               "B": Block(n, pmax)})
        m = run_shared(plan, env_for(n))
        assert m.stats.update_counts() == [16, 16, 16, 16]


class TestDistributedTemplate:
    @pytest.mark.parametrize("name,mk_da,mk_db", DECOMP_GRID)
    def test_matches_reference(self, name, mk_da, mk_db):
        n, pmax = 24, 4
        cl = mk_clause(n=n)
        env0 = env_for(n)
        ref = evaluate_clause(cl, copy_env(env0))
        plan = compile_clause(cl, {"A": mk_da(n, pmax), "B": mk_db(n, pmax)})
        m = run_distributed(plan, copy_env(env0))
        assert np.allclose(m.collect("A"), ref["A"]), name

    def test_aligned_access_no_messages(self):
        # same decomposition, same access function: everything local
        n = 24
        plan = compile_clause(
            mk_clause(n=n), {"A": Block(n, 4), "B": Block(n, 4)}
        )
        m = run_distributed(plan, env_for(n))
        assert m.stats.total_messages() == 0

    def test_misaligned_access_messages_counted(self):
        n = 24
        plan = compile_clause(
            mk_clause(n=n), {"A": Block(n, 4), "B": Scatter(n, 4)}
        )
        m = run_distributed(plan, env_for(n))
        # element i needed by block owner i div 6; resident on i mod 4
        want = sum(
            1 for i in range(n) if i // 6 != i % 4
        )
        assert m.stats.total_messages() == want

    def test_shift_access_neighbour_messages(self):
        n = 24
        cl = mk_clause(n=n, g=AffineF(1, 1), hi=n - 2)
        plan = compile_clause(cl, {"A": Block(n, 4), "B": Block(n, 4)})
        m = run_distributed(plan, env_for(n))
        env0 = env_for(n)
        ref = evaluate_clause(cl, copy_env(env0))
        assert np.allclose(m.collect("A"), ref["A"])
        # only block-boundary elements cross processors: 3 boundaries
        assert m.stats.total_messages() == 3

    def test_replicated_read_no_messages(self):
        n = 24
        plan = compile_clause(
            mk_clause(n=n), {"A": Scatter(n, 4), "B": Replicated(n, 4)}
        )
        m = run_distributed(plan, env_for(n))
        assert m.stats.total_messages() == 0

    def test_replicated_write_broadcasts(self):
        n = 8
        cl = mk_clause(n=n)
        env0 = env_for(n)
        ref = evaluate_clause(cl, copy_env(env0))
        plan = compile_clause(cl, {"A": Replicated(n, 4), "B": Block(n, 4)})
        m = run_distributed(plan, copy_env(env0))
        assert np.allclose(m.collect("A"), ref["A"])
        # every element goes to the 3 non-owning nodes
        assert m.stats.total_messages() == n * 3

    def test_guard_on_remote_data(self):
        n = 20
        guard = Ref("C", SeparableMap([IdentityF()])) > 0.5
        cl = mk_clause(n=n, guard=guard)
        env0 = env_for(n)
        env0["C"] = np.random.default_rng(9).random(n)
        ref = evaluate_clause(cl, copy_env(env0))
        plan = compile_clause(
            cl, {"A": Block(n, 4), "B": Block(n, 4), "C": Scatter(n, 4)}
        )
        m = run_distributed(plan, copy_env(env0))
        assert np.allclose(m.collect("A"), ref["A"])

    def test_seq_clause_rejected(self):
        plan = compile_clause(
            mk_clause(ordering=SEQ), {"A": Block(20, 4), "B": Block(20, 4)}
        )
        with pytest.raises(NotImplementedError):
            run_distributed(plan, env_for(20))

    def test_rotate_access(self):
        n = 20
        cl = mk_clause(n=n, g=ModularF(AffineF(1, 6), 20))
        env0 = env_for(n)
        ref = evaluate_clause(cl, copy_env(env0))
        plan = compile_clause(cl, {"A": Block(n, 4), "B": Scatter(n, 4)})
        m = run_distributed(plan, copy_env(env0))
        assert np.allclose(m.collect("A"), ref["A"])


class TestNaiveBaselines:
    def test_shared_naive_matches_reference(self):
        n = 24
        cl = mk_clause(n=n)
        env0 = env_for(n)
        ref = evaluate_clause(cl, copy_env(env0))
        plan = compile_clause(cl, {"A": Scatter(n, 4), "B": Block(n, 4)})
        m = run_shared_naive(plan, copy_env(env0))
        assert np.allclose(m.env["A"], ref["A"])

    def test_distributed_naive_matches_reference(self):
        n = 24
        cl = mk_clause(n=n, g=AffineF(1, 1), hi=n - 2)
        env0 = env_for(n)
        ref = evaluate_clause(cl, copy_env(env0))
        plan = compile_clause(cl, {"A": Block(n, 4), "B": Scatter(n, 4)})
        m = run_distributed_naive(plan, copy_env(env0))
        assert np.allclose(m.collect("A"), ref["A"])

    def test_naive_does_full_range_tests(self):
        n, pmax = 40, 4
        plan = compile_clause(
            mk_clause(n=n), {"A": Block(n, pmax), "B": Block(n, pmax)}
        )
        m = run_shared_naive(plan, env_for(n))
        # every node scans the whole range: pmax * n tests
        assert m.stats.total_tests() == pmax * n

    def test_optimized_does_no_tests(self):
        n, pmax = 40, 4
        plan = compile_clause(
            mk_clause(n=n), {"A": Block(n, pmax), "B": Block(n, pmax)}
        )
        m = run_shared(plan, env_for(n))
        assert m.stats.total_tests() == 0

    def test_same_messages_as_optimized(self):
        # naive and optimized differ in overhead, not in communication
        n = 24
        cl = mk_clause(n=n)
        plan = compile_clause(cl, {"A": Block(n, 4), "B": Scatter(n, 4)})
        m_opt = run_distributed(plan, env_for(n))
        m_naive = run_distributed_naive(plan, env_for(n))
        assert m_opt.stats.total_messages() == m_naive.stats.total_messages()


class TestSourceHelpers:
    def test_ifunc_src_forms(self):
        assert ifunc_src(ConstantF(5)) == "5"
        assert ifunc_src(IdentityF()) == "i"
        assert ifunc_src(AffineF(1, 3)) == "(i + 3)"
        assert ifunc_src(AffineF(2, -1)) == "(2 * i - 1)"
        assert ifunc_src(ModularF(AffineF(1, 6), 20)) == "((i + 6) % 20)"

    def test_ifunc_src_evaluates_consistently(self):
        for f in (ConstantF(5), AffineF(3, -2), ModularF(AffineF(2, 1), 7, 3)):
            code = ifunc_src(f)
            for i in range(-5, 20):
                assert eval(code, {"i": i}) == f(i), f.name

    def test_ifunc_src_rejects_opaque(self):
        from repro.core import MonotoneF

        with pytest.raises(CodegenError):
            ifunc_src(MonotoneF(lambda i: i, 1))

    def test_proc_local_src_match_decomposition(self):
        for d in (Block(20, 4), Scatter(20, 4), BlockScatter(20, 4, 3),
                  SingleOwner(20, 4, 2)):
            psrc, lsrc = proc_src(d, "v"), local_src(d, "v")
            for i in range(20):
                assert eval(psrc, {"v": i, "p": 0}) == d.proc(i), d
                assert eval(lsrc, {"v": i}) == d.local(i), d

    def test_expr_src(self):
        e = Ref("B", SeparableMap([IdentityF()])) * 2 + 1
        src = expr_src(e, lambda r: "v0")
        assert eval(src, {"v0": 5}) == 11

    def test_expr_src_loop_index(self):
        src = expr_src(LoopIndex(0) * 3, lambda r: "v0")
        assert eval(src, {"i": 4}) == 12
