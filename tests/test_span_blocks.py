"""Span blocks: a lane block whose read rows share one row pitch runs the
unchanged kernel over ONE flat run of memory per read
(``machine.fused._kernel``, ``Region.span``), and stores through a
lane-shaped view of its result slot — bit-identical to the nd form and
to the sequential evaluator (up to the sign of a NaN, :func:`agrees`),
counter for counter, and never storing a padding lane."""

import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import repro.machine.fused as fused
from repro.codegen.dist_tmpl import run_distributed
from repro.codegen.nddist import compile_clause_nd_dist
from repro.codegen.shared_tmpl import run_shared
from repro.core import (
    AffineF,
    Bounds,
    Clause,
    Const,
    IdentityF,
    IndexSet,
    LoopIndex,
    Ref,
    SeparableMap,
    copy_env,
    evaluate_clause,
)
from repro.core.expr import BinOp
from repro.decomp import Block, BlockScatter, GridDecomposition
from repro.pipeline import region
from repro.pipeline.kernels import flavor_nodes

from .conftest import counters

SPECIAL = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0,
           -2.5, 1e308, 5e-324]


@contextlib.contextmanager
def span_pad(pad):
    """Run kernels with ``SPAN_PAD = pad`` (``inf``: every span-capable
    call runs as spans; ``-1``: none does) and record each span cut."""
    cuts = []
    cut = region.Region.span

    def counted(self, arr, length):
        cuts.append(length)
        return cut(self, arr, length)

    with mock.patch.object(fused, "SPAN_PAD", pad), \
            mock.patch.object(region.Region, "span", counted):
        yield cuts


def ref(name, *shift):
    return Ref(name, SeparableMap([AffineF(1, s) if s else IdentityF()
                                   for s in shift]))


def stencil(nd, n, body, write="A"):
    return Clause(IndexSet(Bounds((1,) * nd, (n - 2,) * nd)),
                  ref(write, *(0,) * nd), body)


def evaluated(cl, env):
    """The sequential evaluator's results after one and two runs (its
    scalar operators warn on NaN and zero operands; the kernels run
    under one errstate)."""
    env = copy_env(env)
    with np.errstate(all="ignore"):
        once = evaluate_clause(cl, env)[cl.lhs.name].copy()
        return once, evaluate_clause(cl, env)[cl.lhs.name]


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def agrees(got, want):
    """Bit for bit, but for the sign and payload of a NaN: from two NaN
    operands a ufunc keeps the first one's, a Python float operator may
    keep the second's (``nan + -nan``), and IEEE 754 fixes neither."""
    return bool(((bits(got) == bits(want))
                 | (np.isnan(got) & np.isnan(want))).all())


def poison_ghosts(machine):
    """NaN in every ghost cell of every frame — corners too, which no
    message fills and only a span's padding lanes read."""
    for mem in machine.memories:
        for core, buf, _, _ in mem._frames.values():
            keep = core.copy()
            buf[...] = np.nan
            core[...] = keep


def run_every_way(cl, decomps, env):
    """The clause shared, distributed one-shot, and again on that
    machine with poisoned ghost cells: ``(results, counters)`` per run
    (the last result is of a second run)."""
    plan = compile_clause_nd_dist(cl, decomps)
    name = cl.lhs.name
    shared = run_shared(plan, copy_env(env), backend="fused")
    dist = run_distributed(plan, copy_env(env), backend="fused")
    out = [shared.env[name], dist.collect(name)]
    stats = [counters(shared), counters(dist)]
    poison_ghosts(dist)
    run_distributed(plan, None, machine=dist, backend="fused")
    out.append(dist.collect(name))
    stats.append(counters(dist))
    assert not plan.trace.notes
    return out, stats


@st.composite
def stencil_cases(draw):
    """A 2-D or 3-D stencil clause over reads of ``B`` at shifts in
    {-1, 0, 1} on a grid of Block / BS(b) axes, and values with NaN,
    ±inf and ±0 among them."""
    nd = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(6, 12) if nd == 2 else st.integers(5, 7))
    axes = [draw(st.sampled_from(["block", "bs"])) for _ in range(2)]
    grid = GridDecomposition(
        [Block(n, 2) if a == "block" else
         BlockScatter(n, 2, draw(st.integers(1, 3))) for a in axes]
        + [Block(n, 1)] * (nd - 2))
    shifts = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * nd),
                           min_size=1, max_size=4))
    body = ref("B", *shifts[0])
    for shift in shifts[1:]:
        op = draw(st.sampled_from(["+", "-", "*", "/", "min", "max"]))
        body = BinOp(op, body, ref("B", *shift))
    if draw(st.booleans()):
        body = BinOp("*", Const(draw(st.sampled_from([0.5, -3.0]))), body)
    values = st.sampled_from(SPECIAL) | st.floats(-4, 4, width=64)
    env = {"A": draw(arrays(np.float64, (n,) * nd, elements=values)),
           "B": draw(arrays(np.float64, (n,) * nd, elements=values))}
    return stencil(nd, n, body), {"A": grid, "B": grid}, env


class TestSpanDifferential:
    @given(stencil_cases())
    @settings(max_examples=60, deadline=None)
    def test_span_nd_and_evaluator_agree_bit_for_bit(self, case):
        cl, decomps, env = case
        once, twice = evaluated(cl, env)
        with span_pad(math.inf) as cuts:
            spans, span_stats = run_every_way(cl, decomps, env)
        with span_pad(-1.0) as none:
            nds, nd_stats = run_every_way(cl, decomps, env)
        assert cuts and not none  # the union block always spans
        for span, nd, want in zip(spans, nds, (once, once, twice)):
            assert np.array_equal(bits(span), bits(nd))
            assert agrees(span, want)
        assert span_stats == nd_stats


def e19(n, src="S", dst="T"):
    return stencil(2, n, (ref(src, -1, 0) + ref(src, 1, 0)
                          + ref(src, 0, -1) + ref(src, 0, 1)) * 0.25, dst)


def grid2x2(n):
    return GridDecomposition([Block(n, 2), Block(n, 2)])


class TestFallbacks:
    """Calls that keep the nd form and still agree with the evaluator."""

    def check(self, cl, decomps, env, spans_expected=False):
        once, twice = evaluated(cl, env)
        with span_pad(fused.SPAN_PAD) as cuts:
            got, stats = run_every_way(cl, decomps, env)
        with span_pad(-1.0):
            _, nd_stats = run_every_way(cl, decomps, env)
        assert bool(cuts) == spans_expected
        for g, want in zip(got, (once, once, twice)):
            assert np.array_equal(bits(g), bits(want))
        assert stats == nd_stats

    def test_mixed_pitches_read_of_the_write_target(self):
        # the union block may span, but its A row is a pre-state copy
        # (pitch = lane width) and its B row a view of B (pitch = n): nd
        n, g = 24, grid2x2(24)
        cl = stencil(2, n, ref("A", 0, -1) + ref("B", -1, 0) * 2.0)
        plan = compile_clause_nd_dist(cl, {"A": g, "B": g})
        (union,) = flavor_nodes(plan.ir, "union")
        assert union.blocks[0].span
        rng = np.random.default_rng(3)
        self.check(cl, {"A": g, "B": g},
                   {k: rng.random((n, n)) for k in "AB"})

    def test_narrow_strip_of_a_wide_frame(self):
        # 3 lanes a row in a 64-wide array: the span would pad ~20x
        n = 64
        g = GridDecomposition([Block(n, 4), Block(n, 1)])
        cl = Clause(IndexSet(Bounds((1, 1), (n - 2, 3))), ref("A", 0, 0),
                    ref("B", 0, -1) - ref("B", 1, 1))
        rng = np.random.default_rng(4)
        self.check(cl, {"A": g, "B": g},
                   {k: rng.random((n, n)) for k in "AB"})

    @pytest.mark.parametrize("body", ["index", "guard", "no read"])
    def test_index_guarded_and_readless_bodies_stay_nd(self, body):
        n, g = 16, grid2x2(16)
        kw = {}
        rhs = ref("B", 0, -1) * 2.0
        if body == "index":
            rhs = rhs + LoopIndex(0)
        elif body == "guard":
            kw["guard"] = ref("B", 1, 0) > 0.5
        else:
            rhs = Const(2.5)
        cl = Clause(IndexSet(Bounds((1, 1), (n - 2, n - 2))), ref("A", 0, 0),
                    rhs, **kw)
        plan = compile_clause_nd_dist(cl, {"A": g, "B": g})
        for flavor in ("union", "dist"):
            assert not any(b.span for nk in flavor_nodes(plan.ir, flavor)
                           for b in nk.blocks)
        rng = np.random.default_rng(5)
        self.check(cl, {"A": g, "B": g},
                   {k: rng.random((n, n)) for k in "AB"})

    def test_memory_that_is_not_float64_spans_its_copy(self):
        # a row converted from another dtype is a copy: a span is cut
        # from that copy, never from the memory it was converted from
        n, g = 16, grid2x2(16)
        plan = compile_clause_nd_dist(e19(n), {"S": g, "T": g})
        (union,) = flavor_nodes(plan.ir, "union")
        k, blk = plan.ir.kernels, union.blocks[0]
        arrays = {"S": np.arange(n * n).reshape(n, n), "T": np.zeros((n, n))}
        rows, origin = fused._lane_rows(union, arrays, "T")
        nd, _ = fused._kernel(blk, rows, None, k.rhs, k.guard)
        nd = nd.copy()
        with span_pad(math.inf) as cuts:
            got, _ = fused._kernel(blk, rows, origin, k.rhs, k.guard)
        assert cuts
        assert np.array_equal(bits(got), bits(nd))

    def test_e19_spans_at_the_default_fraction(self):
        n, g = 32, grid2x2(32)
        rng = np.random.default_rng(6)
        self.check(e19(n), {"S": g, "T": g},
                   {k: rng.random((n, n)) for k in "ST"},
                   spans_expected=True)


class TestPaddingNeverStores:
    def test_cells_around_the_block_are_unchanged(self):
        """A span computes on the frame cells between lane rows; none of
        them — the ghost cells of the written frame, the global border —
        is stored to."""
        n, g = 32, grid2x2(32)
        sentinel = np.frombuffer(np.uint64(0x7FF8DEADBEEF0001).tobytes(),
                                 np.float64)[0]
        rng = np.random.default_rng(7)
        env = {"S": rng.random((n, n)), "T": np.full((n, n), sentinel)}
        s_to_t, t_to_s = (compile_clause_nd_dist(e19(n, *pair),
                                                 {"S": g, "T": g})
                          for pair in (("S", "T"), ("T", "S")))
        # shared: everything off the domain keeps its bits
        with span_pad(fused.SPAN_PAD) as cuts:
            m = run_shared(s_to_t, copy_env(env), backend="fused")
        assert cuts
        lanes = np.zeros((n, n), bool)
        lanes[1:-1, 1:-1] = True
        assert np.array_equal(bits(m.env["T"])[~lanes],
                              bits(env["T"])[~lanes])
        # distributed: T read once (so it has ghost frames), then written
        m = run_distributed(t_to_s, {"S": env["S"], "T": rng.random((n, n))},
                            backend="fused")
        for mem in m.memories:
            _, buf, _, _ = mem._frames["T"]
            buf[...] = sentinel
        frames = [mem._frames["T"][1].copy() for mem in m.memories]
        with span_pad(fused.SPAN_PAD) as cuts:
            run_distributed(s_to_t, None, machine=m, backend="fused")
        assert cuts
        for nk, mem, before in zip(flavor_nodes(s_to_t.ir, "dist"),
                                   m.memories, frames):
            core, buf, have, _ = mem._frames["T"]
            written = np.zeros(buf.shape, bool)
            view = written[tuple(slice(lo, lo + k) for (lo, _), k
                                 in zip(have, core.shape))]
            nk.blocks[0].write.take(view)[...] = True
            assert np.array_equal(bits(buf)[~written], bits(before)[~written])
            assert not np.array_equal(bits(buf)[written],
                                      bits(before)[written])


class TestRegionSpan:
    """``Region.span``: a basic slice of a C-contiguous array, from a flat
    region's first lane; never a copy, never past the array."""

    def test_a_span_is_a_view_holding_every_lane(self):
        arr = np.arange(48.0).reshape(6, 8)
        r = region.Region([slice(1, 5), slice(2, 6)], (0, 1), (4, 4))
        assert r.flat
        end = 3 * 8 + 4  # lanes from the first to the last, pitch 8
        s = r.span(arr, end)
        assert s.base is not None and np.shares_memory(s, arr)
        assert np.array_equal(s, arr.reshape(-1)[10:10 + end])
        padded = np.append(s, np.zeros(4)).reshape(4, 8)
        assert np.array_equal(padded[:, :4], arr[1:5, 2:6])

    def test_clipping_and_non_flat_cuts_raise(self):
        arr = np.arange(48.0).reshape(6, 8)
        r = region.Region([slice(1, 5), slice(2, 6)], (0, 1), (4, 4))
        with pytest.raises(IndexError):
            r.span(arr, 39)  # one lane past the array's end
        with pytest.raises(IndexError):
            region.Region([slice(3, 7), slice(0, 4)], (0, 1),
                          (4, 4)).span(arr, 28)  # rows past the array
        with pytest.raises(ValueError):
            r.span(np.asfortranarray(arr), 28)  # not C-contiguous
        strided = region.Region([slice(0, 6, 2), slice(0, 4)], (0, 1),
                                (3, 4))
        assert not strided.flat
        with pytest.raises(ValueError):
            strided.span(arr, 20)
