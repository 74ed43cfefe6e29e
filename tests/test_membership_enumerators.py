"""Tests for Modify/Reside sets and the Theorem 1-3 enumerators (§2.8, §3)."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.ifunc import AffineF, ConstantF, ModularF, MonotoneF
from repro.decomp import Block, BlockScatter, Scatter, SingleOwner
from repro.sets import (
    Enumeration,
    Segment,
    Work,
    all_naive,
    enum_block,
    enum_constant,
    enum_repeated_block,
    enum_repeated_scatter,
    enum_scatter_linear,
    enum_scatter_on_k,
    modify_naive,
    optimize_access,
    reside_naive,
)


class TestWorkCounter:
    def test_overhead_sums_non_useful_work(self):
        w = Work(tests=3, iterations=2, euclid_steps=1, preimage_calls=4,
                 emitted=10)
        assert w.overhead() == 10

    def test_add(self):
        w = Work(tests=1) + Work(tests=2, emitted=5)
        assert w.tests == 3
        assert w.emitted == 5


class TestNaiveMembership:
    def test_modify_definition(self):
        d = Scatter(20, 4)
        f = AffineF(1, 0)
        for p in range(4):
            assert modify_naive(d, f, 0, 19, p) == list(range(p, 20, 4))

    def test_naive_test_count_is_full_range(self):
        # §3 intro: worst case imax-imin+1 tests per processor
        d, f = Block(40, 4), AffineF(1, 0)
        w = Work()
        modify_naive(d, f, 5, 34, 2, w)
        assert w.tests == 30
        assert w.iterations == 30

    def test_reside_is_same_scan(self):
        d, g = Scatter(12, 3), AffineF(2, 1)
        assert reside_naive(d, g, 0, 5, 1) == modify_naive(d, g, 0, 5, 1)

    def test_all_is_union(self):
        dw, dr = Block(20, 4), Scatter(20, 4)
        f, g = AffineF(1, 0), AffineF(1, 1)
        for p in range(4):
            got = all_naive(dw, f, dr, g, 0, 18, p)
            want = sorted(
                set(modify_naive(dw, f, 0, 18, p))
                | set(reside_naive(dr, g, 0, 18, p))
            )
            assert got == want


class TestSegments:
    def test_segment_indices(self):
        assert list(Segment(2, 10, 3).indices()) == [2, 5, 8]

    def test_segment_count(self):
        assert Segment(2, 10, 3).count() == 3
        assert Segment(5, 4).count() == 0

    def test_invalid_step(self):
        with pytest.raises(ValueError):
            Segment(0, 5, 0)

    def test_enumeration_flattening(self):
        e = Enumeration.table("x", [0, 10], [2, 12])
        assert e.segments == [Segment(0, 2), Segment(10, 12)]
        assert e.indices() == [0, 1, 2, 10, 11, 12]
        assert e.count() == 6

    def test_add_skips_empty(self):
        e = Enumeration.table("x", [5, 7], [3, 7])
        assert e.segments == [Segment(7, 7)]
        assert Enumeration.table("x", 5, 3).segments == []


class TestTheorem1:
    """Constant access: full range on proc(c), empty elsewhere."""

    def test_owning_processor_full_range(self):
        d, f = Block(20, 4), ConstantF(9)
        w = Work()
        e = enum_constant(d, f, 3, 17, d.proc(9), w)
        assert e.indices() == list(range(3, 18))
        assert w.tests == 1  # exactly one test, not one per index

    def test_other_processors_empty(self):
        d, f = Block(20, 4), ConstantF(9)
        for p in range(4):
            if p == d.proc(9):
                continue
            assert enum_constant(d, f, 3, 17, p, Work()).indices() == []

    def test_under_scatter(self):
        d, f = Scatter(20, 4), ConstantF(9)
        assert enum_constant(d, f, 0, 9, 1, Work()).indices() == list(range(10))
        assert enum_constant(d, f, 0, 9, 0, Work()).indices() == []


class TestBlockRule:
    def test_shift_access(self):
        # Table I row i+c under block: j in [max(imin, b.p - c), min(imax, b.p+b-1-c)]
        d, f = Block(20, 4), AffineF(1, 3)
        for p in range(4):
            got = enum_block(d, f, 0, 16, p, Work()).indices()
            want = modify_naive(d, f, 0, 16, p)
            assert got == want

    def test_single_preimage_call(self):
        d, f = Block(1000, 4), AffineF(1, 0)
        w = Work()
        enum_block(d, f, 0, 999, 2, w)
        assert w.preimage_calls == 1
        assert w.tests == 0

    def test_monotone_inverse_by_binary_search(self):
        d = Block(200, 4)
        f = MonotoneF(lambda i: i * i, 1, "i^2")
        for p in range(4):
            got = enum_block(d, f, 0, 14, p, Work()).indices()
            assert got == modify_naive(d, f, 0, 14, p)

    def test_decreasing_access(self):
        d, f = Block(20, 4), AffineF(-1, 19)
        for p in range(4):
            got = enum_block(d, f, 0, 19, p, Work()).indices()
            assert got == modify_naive(d, f, 0, 19, p)


class TestTheorem2RepeatedBlock:
    def test_blockscatter_identity(self):
        d = BlockScatter(30, 4, 3)
        f = AffineF(1, 0)
        for p in range(4):
            got = enum_repeated_block(d, f, 0, 29, p, Work()).indices()
            assert got == modify_naive(d, f, 0, 29, p)

    def test_kmax_matches_paper_formula(self):
        # kmax = (f(imax) div b - p) div pmax for monotone increasing f
        d = BlockScatter(64, 4, 2)
        f = AffineF(1, 0)
        imin, imax = 0, 63
        for p in range(4):
            w = Work()
            enum_repeated_block(d, f, imin, imax, p, w)
            paper_kmax = (f(imax) // d.b - p) // d.pmax
            # iterations == number of course values tried == kmax+1
            assert w.iterations == paper_kmax + 1

    def test_work_scales_with_courses_not_range(self):
        d = BlockScatter(10_000, 4, 100)
        f = AffineF(1, 0)
        w = Work()
        enum_repeated_block(d, f, 0, 9999, 0, w)
        assert w.iterations + w.preimage_calls < 100  # << 10000

    def test_stride_2_access(self):
        d = BlockScatter(40, 4, 3)
        f = AffineF(2, 1)
        for p in range(4):
            got = enum_repeated_block(d, f, 0, 19, p, Work()).indices()
            assert got == modify_naive(d, f, 0, 19, p)

    def test_decreasing_access_sorted_output(self):
        d = BlockScatter(30, 3, 2)
        f = AffineF(-1, 29)
        for p in range(3):
            got = enum_repeated_block(d, f, 0, 29, p, Work()).indices()
            assert got == modify_naive(d, f, 0, 29, p)
            assert got == sorted(got)


class TestRepeatedScatter:
    def test_matches_naive(self):
        d = BlockScatter(64, 4, 2)
        f = AffineF(1, 0)
        for p in range(4):
            got = enum_repeated_scatter(d, f, 0, 63, p, Work()).indices()
            assert got == modify_naive(d, f, 0, 63, p)

    def test_agrees_with_repeated_block(self):
        d = BlockScatter(50, 3, 2)
        f = AffineF(2, 1)
        for p in range(3):
            rs = enum_repeated_scatter(d, f, 0, 24, p, Work()).indices()
            rb = enum_repeated_block(d, f, 0, 24, p, Work()).indices()
            assert rs == rb


class TestTheorem3Scatter:
    def test_linear_progression(self):
        d = Scatter(100, 4)
        f = AffineF(3, 1)
        for p in range(4):
            got = enum_scatter_linear(d, f, 0, 32, p, Work()).indices()
            assert got == modify_naive(d, f, 0, 32, p)

    def test_emits_strided_segment(self):
        d = Scatter(100, 4)
        f = AffineF(3, 0)
        e = enum_scatter_linear(d, f, 0, 33, 0, Work())
        assert len(e.segments) == 1
        assert e.segments[0].step == 4  # pmax/gcd(3,4) = 4

    def test_corollary1_rule_tag(self):
        # pmax mod a = 0
        d, f = Scatter(40, 4), AffineF(2, 1)
        e = enum_scatter_linear(d, f, 0, 19, 1, Work())
        assert e.rule == "thm3-cor1"
        assert e.indices() == modify_naive(d, f, 0, 19, 1)

    def test_corollary2_single_active_processor(self):
        # a mod pmax = 0: only p = c mod pmax is active
        d, f = Scatter(100, 4), AffineF(8, 3)
        for p in range(4):
            e = enum_scatter_linear(d, f, 0, 12, p, Work())
            assert e.rule == "thm3-cor2"
            if p == 3:
                assert e.indices() == list(range(13))
            else:
                assert e.indices() == []

    def test_inactive_processor_empty(self):
        # 2i ≡ 1 (mod 4): p=1 never executes
        d, f = Scatter(40, 4), AffineF(2, 0)
        assert enum_scatter_linear(d, f, 0, 19, 1, Work()).indices() == []

    def test_euclid_steps_recorded(self):
        d, f = Scatter(100, 7), AffineF(5, 0)
        w = Work()
        enum_scatter_linear(d, f, 0, 19, 3, w)
        assert w.euclid_steps >= 1

    def test_negative_slope(self):
        d, f = Scatter(40, 4), AffineF(-3, 39)
        for p in range(4):
            got = enum_scatter_linear(d, f, 0, 13, p, Work()).indices()
            assert got == modify_naive(d, f, 0, 13, p)


class TestEnumerateOnK:
    def test_matches_naive_for_slow_function(self):
        d = Scatter(120, 8)
        f = MonotoneF(lambda i: i + i // 4, 1, "i+i div 4")
        for p in range(8):
            got = enum_scatter_on_k(d, f, 0, 90, p, Work()).indices()
            assert got == modify_naive(d, f, 0, 90, p)

    def test_sampling_rate_advantage(self):
        # §3.2: enumerate on k samples at rate pmax instead of df/di,
        # improvement factor pmax/(df/di)
        d = Scatter(8000, 64)
        f = MonotoneF(lambda i: i + i // 4, 1, derivative_max=1.25)
        imin, imax = 0, 6000
        w_opt = Work()
        enum_scatter_on_k(d, f, imin, imax, 5, w_opt)
        w_naive = Work()
        modify_naive(d, f, imin, imax, 5, w_naive)
        ratio = w_naive.iterations / max(1, w_opt.iterations)
        assert ratio > 64 / 1.25 * 0.5  # within 2x of the predicted factor

    def test_quadratic_access(self):
        d = Scatter(150, 7)
        f = MonotoneF(lambda i: i * i, 1, "i^2")
        for p in range(7):
            got = enum_scatter_on_k(d, f, 0, 12, p, Work()).indices()
            assert got == modify_naive(d, f, 0, 12, p)


class TestPiecewiseModular:
    def test_rotate_under_block(self):
        d = Block(20, 4)
        f = ModularF(AffineF(1, 6), 20)
        acc = optimize_access(d, f, 0, 19)
        assert acc.rule.startswith("piecewise")
        for p in range(4):
            assert acc.indices(p) == modify_naive(d, f, 0, 19, p)

    def test_rotate_under_scatter(self):
        d = Scatter(20, 4)
        f = ModularF(AffineF(1, 6), 20)
        acc = optimize_access(d, f, 0, 19)
        for p in range(4):
            assert acc.indices(p) == modify_naive(d, f, 0, 19, p)

    def test_breakpoint_splits_block_ranges(self):
        # the processor holding the break gets two ranges
        d = Block(20, 4)
        f = ModularF(AffineF(1, 6), 20)
        acc = optimize_access(d, f, 0, 19)
        counts = [len(acc.enumerate(p).segments) for p in range(4)]
        assert max(counts) >= 2
