"""Tests for the Table I dispatch (rule selection + the grand oracle)."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.ifunc import AffineF, ConstantF, ModularF, MonotoneF
from repro.decomp import Block, BlockScatter, Replicated, Scatter, SingleOwner
from repro.diophantine.linear import solve_scatter_congruence
from repro.sets import (
    Segment,
    Work,
    choose_rule,
    enum_scatter_linear,
    modify_naive,
    optimize_access,
)


class TestRuleSelection:
    """Each (access class x decomposition) lands on its Table I entry."""

    def test_constant_any_decomposition(self):
        for d in (Block(20, 4), Scatter(20, 4), BlockScatter(20, 4, 2)):
            assert choose_rule(d, ConstantF(5), 0, 19)[0] == "thm1-constant"

    def test_block_affine(self):
        assert choose_rule(Block(20, 4), AffineF(2, 1), 0, 9)[0] == "block"

    def test_block_monotone(self):
        f = MonotoneF(lambda i: i * i, 1, "i^2")
        assert choose_rule(Block(200, 4), f, 0, 14)[0] == "block"

    def test_scatter_linear_general(self):
        assert choose_rule(Scatter(100, 7), AffineF(3, 0), 0, 30)[0] == "thm3-linear"

    def test_scatter_corollary1(self):
        # pmax mod a = 0
        assert choose_rule(Scatter(100, 6), AffineF(3, 0), 0, 30)[0] == "thm3-cor1"

    def test_scatter_corollary2(self):
        # a mod pmax = 0
        assert choose_rule(Scatter(100, 3), AffineF(6, 1), 0, 15)[0] == "thm3-cor2"

    def test_scatter_slow_monotone_enum_on_k(self):
        f = MonotoneF(lambda i: i + i // 4, 1, derivative_max=1.25)
        assert choose_rule(Scatter(100, 4), f, 0, 70)[0] == "enum-on-k"

    def test_scatter_fast_monotone_falls_back_to_thm2(self):
        # df/di >= pmax: paper says "no optimization" via enum-on-k;
        # Theorem 2 with b=1 still enumerates in closed form.
        f = MonotoneF(lambda i: 10 * i, 1, derivative_max=10.0)
        assert choose_rule(Scatter(500, 4), f, 0, 45)[0] == "thm2-repeated-block"

    def test_blockscatter_repeated_block_for_large_b(self):
        # b > f(imax)/(2 pmax)
        d = BlockScatter(64, 4, 8)
        assert choose_rule(d, AffineF(1, 0), 0, 63)[0] == "thm2-repeated-block"

    def test_blockscatter_repeated_scatter_for_small_b(self):
        # b <= f(imax)/(2 pmax): 1 <= 63/8
        d = BlockScatter(64, 4, 1)
        rule = choose_rule(d, AffineF(1, 0), 0, 63)[0]
        assert rule == "repeated-scatter"

    def test_crossover_condition_exact(self):
        # the §3.2.i threshold: b <= f(imax)/(2.pmax)
        pmax, imax = 4, 63
        threshold = (imax) // (2 * pmax)
        d_small = BlockScatter(64, pmax, threshold)
        d_large = BlockScatter(64, pmax, threshold + 2)
        assert choose_rule(d_small, AffineF(1, 0), 0, imax)[0] == "repeated-scatter"
        assert choose_rule(d_large, AffineF(1, 0), 0, imax)[0] == "thm2-repeated-block"

    def test_modular_goes_piecewise(self):
        f = ModularF(AffineF(1, 6), 20)
        rule = choose_rule(Scatter(20, 4), f, 0, 19)[0]
        assert rule.startswith("piecewise(")

    def test_singleowner(self):
        assert choose_rule(SingleOwner(10, 4, 1), AffineF(1, 0), 0, 9)[0] == \
            "singleowner"

    def test_replicated(self):
        assert choose_rule(Replicated(10, 4), AffineF(1, 0), 0, 9)[0] == \
            "replicated-all"

    def test_empty_range(self):
        acc = optimize_access(Block(10, 2), AffineF(1, 0), 5, 4)
        assert acc.rule == "empty"
        assert acc.indices(0) == []


class TestOptimizedAccessApi:
    def test_indices_equals_enumerate_flatten(self):
        acc = optimize_access(Scatter(40, 4), AffineF(3, 1), 0, 12)
        for p in range(4):
            assert acc.indices(p) == acc.enumerate(p).indices()

    def test_work_optional(self):
        acc = optimize_access(Block(40, 4), AffineF(1, 0), 0, 39)
        w = Work()
        acc.enumerate(1, w)
        assert w.preimage_calls == 1


# ---------------------------------------------------------------------------
# The grand oracle: every dispatch result equals the naive definition.
# ---------------------------------------------------------------------------

def _decomp_strategy():
    return st.tuples(
        st.sampled_from(["block", "scatter", "bs", "single"]),
        st.integers(1, 64),
        st.integers(1, 8),
        st.integers(1, 6),
        st.integers(0, 7),
    )


def _mk_decomp(t):
    kind, n, pmax, b, owner = t
    if kind == "block":
        return Block(n, pmax)
    if kind == "scatter":
        return Scatter(n, pmax)
    if kind == "bs":
        return BlockScatter(n, pmax, b)
    return SingleOwner(n, pmax, owner % pmax)


class TestOracle:
    @given(_decomp_strategy(), st.integers(0, 63))
    @settings(max_examples=150)
    def test_constant(self, dt, c):
        d = _mk_decomp(dt)
        assume(c < d.n)
        acc = optimize_access(d, ConstantF(c), 0, 30)
        for p in range(d.pmax):
            assert acc.indices(p) == modify_naive(d, ConstantF(c), 0, 30, p)

    @given(
        _decomp_strategy(),
        st.integers(-5, 5).filter(lambda a: a),
        st.integers(0, 10),
    )
    @settings(max_examples=300)
    def test_affine(self, dt, a, c):
        d = _mk_decomp(dt)
        f = AffineF(a, c)
        cand = [i for i in range(0, 80) if 0 <= f(i) < d.n]
        assume(cand)
        imin, imax = min(cand), max(cand)
        acc = optimize_access(d, f, imin, imax)
        for p in range(d.pmax):
            assert acc.indices(p) == modify_naive(d, f, imin, imax, p), (
                acc.rule, d, f.name, (imin, imax), p,
            )

    @given(
        st.integers(1, 64),
        st.integers(1, 8),
        st.integers(-5, 5).filter(lambda a: a),
        st.integers(0, 10),
    )
    @settings(max_examples=300)
    def test_scatter_linear_is_the_t_range_of_the_listed_solutions(
            self, n, pmax, a, c):
        """Theorem 3 in O(1): the segments and every ``Work`` field of
        ``t_min..t_max`` equal those of listing the solutions."""
        d, f = Scatter(n, pmax), AffineF(a, c)
        cand = [i for i in range(0, 80) if 0 <= f(i) < d.n]
        assume(cand)
        imin, imax = min(cand) - 2, max(cand) + 2  # clipped to the data
        for p in range(pmax):
            want, spent = [], Work()
            sol = solve_scatter_congruence(a, c, pmax, p)
            if sol is None:
                spent.euclid_steps = 1
            else:
                spent.euclid_steps, spent.preimage_calls = sol.euclid_steps, 1
                for rlo, rhi in f.preimage(0, n - 1, imin, imax):
                    pts = sol.solutions_in(rlo, rhi)
                    if pts:
                        want.append(Segment(pts[0], pts[-1], sol.stride))
                        spent.emitted += len(pts)
            work = Work()
            got = enum_scatter_linear(d, f, imin, imax, p, work)
            assert got.segments == want and vars(work) == vars(spent)

    @given(
        _decomp_strategy(),
        st.integers(1, 3),
        st.integers(0, 10),
        st.integers(3, 40),
    )
    @settings(max_examples=300)
    def test_modular(self, dt, a, c, z):
        d = _mk_decomp(dt)
        f = ModularF(AffineF(a, c), z)
        # longest prefix from 0 whose image stays inside [0, n)
        imax = -1
        for i in range(0, 60):
            if 0 <= f(i) < d.n:
                imax = i
            else:
                break
        assume(imax >= 0)
        acc = optimize_access(d, f, 0, imax)
        for p in range(d.pmax):
            assert acc.indices(p) == modify_naive(d, f, 0, imax, p), (
                acc.rule, d, f.name, imax, p,
            )

    @given(_decomp_strategy())
    @settings(max_examples=150)
    def test_monotone_nonlinear(self, dt):
        d = _mk_decomp(dt)
        f = MonotoneF(lambda i: i + i // 4, 1, "i+i div 4")
        cand = [i for i in range(0, 80) if 0 <= f(i) < d.n]
        assume(cand)
        imin, imax = min(cand), max(cand)
        acc = optimize_access(d, f, imin, imax)
        for p in range(d.pmax):
            assert acc.indices(p) == modify_naive(d, f, imin, imax, p)

    @given(_decomp_strategy(), st.integers(2, 5))
    @settings(max_examples=100)
    def test_quadratic(self, dt, scale):
        d = _mk_decomp(dt)
        f = MonotoneF(lambda i: i * i, 1, "i^2")
        cand = [i for i in range(0, 80) if 0 <= f(i) < d.n]
        assume(cand)
        imin, imax = min(cand), max(cand)
        acc = optimize_access(d, f, imin, imax)
        for p in range(d.pmax):
            assert acc.indices(p) == modify_naive(d, f, imin, imax, p)


class TestOverheadClaims:
    """§3 intro vs Table I: the optimized enumerators do no per-index tests."""

    @pytest.mark.parametrize("n,pmax", [(1000, 4), (1024, 8)])
    def test_closed_forms_do_zero_tests_affine_block(self, n, pmax):
        acc = optimize_access(Block(n, pmax), AffineF(1, 0), 0, n - 1)
        for p in range(pmax):
            w = Work()
            acc.enumerate(p, w)
            assert w.tests == 0

    def test_naive_tests_equal_range_length_per_processor(self):
        d = Block(1000, 4)
        w = Work()
        modify_naive(d, AffineF(1, 0), 0, 999, 0, w)
        assert w.tests == 1000

    def test_optimized_overhead_orders_of_magnitude_lower(self):
        n, pmax = 10_000, 8
        d = Scatter(3 * n + 1, pmax)
        f = AffineF(3, 0)
        acc = optimize_access(d, f, 0, n)
        total_opt = Work()
        for p in range(pmax):
            acc.enumerate(p, total_opt)
        total_naive = Work()
        for p in range(pmax):
            modify_naive(d, f, 0, n, p, total_naive)
        assert total_opt.overhead() * 100 < total_naive.overhead()
