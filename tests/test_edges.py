"""Edge cases across the stack: empty structures, empty domains,
single-processor machines, degenerate parameters."""

import numpy as np
import pytest

from repro.baselines import run_distributed_naive
from repro.codegen import compile_clause, run_distributed, run_shared
from repro.core import (
    AffineF,
    Clause,
    ConstantF,
    IndexSet,
    Ref,
    SeparableMap,
    copy_env,
    evaluate_clause,
)
from repro.core.view import GeneralMap
from repro.decomp import Block, BlockScatter, Scatter, plan_redistribution
from repro.machine import DistributedMachine, LocalMemory, scatter_global
from repro.sets import Work, modify_naive, optimize_access


class TestEmptyStructures:
    def test_zero_length_decompositions(self):
        for d in (Block(0, 4), Scatter(0, 4), BlockScatter(0, 4, 2)):
            assert d.layout() == []
            assert all(d.owned(p) == [] for p in range(4))
            assert d.max_local_size() == 0
            d.validate()

    def test_single_element(self):
        d = Scatter(1, 4)
        assert d.owned(0) == [0]
        assert d.local_size(0) == 1
        assert d.local_size(3) == 0

    def test_place_zero_length_array(self):
        m = DistributedMachine(2)
        m.place("A", np.zeros(0), Block(0, 2))
        assert m.collect("A").size == 0

    def test_more_processors_than_elements(self):
        d = Block(3, 8)
        assert [len(d.owned(p)) for p in range(8)] == [1, 1, 1, 0, 0, 0, 0, 0]
        d.validate()


class TestEmptyDomains:
    def mk(self, lo, hi):
        return Clause(
            IndexSet.range1d(lo, hi),
            Ref("A", SeparableMap([AffineF(1, 0)])),
            Ref("B", SeparableMap([AffineF(1, 0)])) + 1,
        )

    def test_empty_clause_domain_runs(self):
        cl = self.mk(5, 4)
        env0 = {"A": np.arange(8.0), "B": np.zeros(8)}
        plan = compile_clause(cl, {"A": Block(8, 2), "B": Block(8, 2)})
        assert plan.write.axes[0].rule == "empty"
        m = run_distributed(plan, copy_env(env0))
        assert np.array_equal(m.collect("A"), env0["A"])
        assert m.stats.total_messages() == 0

    def test_empty_domain_shared(self):
        cl = self.mk(5, 4)
        env0 = {"A": np.arange(8.0), "B": np.zeros(8)}
        plan = compile_clause(cl, {"A": Scatter(8, 2), "B": Scatter(8, 2)})
        m = run_shared(plan, copy_env(env0))
        assert np.array_equal(m.env["A"], env0["A"])

    def test_single_index_domain(self):
        cl = self.mk(3, 3)
        env0 = {"A": np.zeros(8), "B": np.arange(8.0)}
        plan = compile_clause(cl, {"A": Block(8, 4), "B": Scatter(8, 4)})
        m = run_distributed(plan, copy_env(env0))
        ref = evaluate_clause(cl, copy_env(env0))["A"]
        assert np.allclose(m.collect("A"), ref)


class TestSingleProcessor:
    def test_everything_local_pmax1(self):
        cl = Clause(
            IndexSet.range1d(0, 9),
            Ref("A", SeparableMap([AffineF(1, 0)])),
            Ref("B", SeparableMap([AffineF(1, 0)])) * 3,
        )
        env0 = {"A": np.zeros(10), "B": np.arange(10.0)}
        plan = compile_clause(cl, {"A": Block(10, 1), "B": Scatter(10, 1)})
        m = run_distributed(plan, copy_env(env0))
        assert m.stats.total_messages() == 0
        assert np.allclose(m.collect("A"), env0["B"] * 3)

    def test_naive_pmax1(self):
        cl = Clause(
            IndexSet.range1d(0, 9),
            Ref("A", SeparableMap([AffineF(1, 0)])),
            Ref("B", SeparableMap([AffineF(1, 0)])),
        )
        env0 = {"A": np.zeros(10), "B": np.arange(10.0)}
        plan = compile_clause(cl, {"A": Block(10, 1), "B": Block(10, 1)})
        m = run_distributed_naive(plan, copy_env(env0))
        assert np.allclose(m.collect("A"), env0["B"])


class TestDegenerateAccess:
    def test_constant_write_function(self):
        # every iteration writes A[c]: legal only with SEQ or single
        # iteration; use a single-iteration domain
        cl = Clause(
            IndexSet.range1d(7, 7),
            Ref("A", SeparableMap([ConstantF(3)])),
            Ref("B", SeparableMap([AffineF(1, 0)])),
        )
        env0 = {"A": np.zeros(10), "B": np.arange(10.0)}
        plan = compile_clause(cl, {"A": Block(10, 2), "B": Block(10, 2)})
        assert plan.write.axes[0].rule == "thm1-constant"
        m = run_distributed(plan, copy_env(env0))
        out = m.collect("A")
        assert out[3] == 7.0

    def test_negative_slope_write(self):
        # A[n-1-i] := B[i]: a reversal
        n = 12
        cl = Clause(
            IndexSet.range1d(0, n - 1),
            Ref("A", SeparableMap([AffineF(-1, n - 1)])),
            Ref("B", SeparableMap([AffineF(1, 0)])),
        )
        env0 = {"A": np.zeros(n), "B": np.arange(float(n))}
        plan = compile_clause(cl, {"A": Scatter(n, 3), "B": Block(n, 3)})
        m = run_distributed(plan, copy_env(env0))
        assert np.array_equal(m.collect("A"), env0["B"][::-1])


class TestViewMisc:
    def test_general_map_composition(self):
        g1 = GeneralMap(lambda i: (i[0] + 1,), "inc")
        g2 = GeneralMap(lambda i: (2 * i[0],), "dbl")
        comp = g2.compose(g1)
        assert comp((3,)) == (8,)
        assert "dbl∘inc" in comp.name

    def test_decomposition_as_view(self):
        d = Scatter(8, 4)
        v = d.as_view()
        for i in range(8):
            assert v.ip((i,)) == d.place(i)


class TestWorkAndEnumerationMisc:
    def test_optimize_access_empty_never_crashes(self):
        acc = optimize_access(Scatter(10, 2), AffineF(1, 0), 3, 2)
        w = Work()
        assert acc.indices(1, w) == []
        assert w.overhead() == 0

    def test_course_range_empty_image(self):
        # image entirely outside the data range: no courses at all
        acc = optimize_access(BlockScatter(4, 2, 1), ConstantF(3), 0, 9)
        assert acc.indices(0) == modify_naive(
            BlockScatter(4, 2, 1), ConstantF(3), 0, 9, 0
        )

    def test_local_memory_alloc_clamps_negative(self):
        mem = LocalMemory(0)
        arr = mem.alloc("A", -1)
        assert arr.size == 0

    def test_scatter_global_empty_owner(self):
        d = Block(3, 8)
        mems = [LocalMemory(p) for p in range(8)]
        scatter_global("A", np.arange(3.0), d, mems)
        assert mems[7]["A"].size == 0


class TestRedistributionEdges:
    def test_zero_length_redistribution(self):
        plan = plan_redistribution(Block(0, 2), Scatter(0, 2))
        assert plan.moved_elements() == 0
        assert plan.stay_elements() == 0

    def test_pmax1_redistribution_all_stay(self):
        plan = plan_redistribution(Block(10, 1), Scatter(10, 1))
        assert plan.moved_elements() == 0
        assert plan.stay_elements() == 10
