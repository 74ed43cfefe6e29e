"""Hypothesis property tests for the extension code generators:
DOACROSS pipelines, ND distributed generation, inspector/executor, and
the repeated-scatter affine fast path — each against the sequential
V-cal oracle or the naive membership definition."""

from typing import List, NamedTuple

import numpy as np
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.codegen.doacross import compile_doacross, run_doacross
from repro.codegen.inspector import build_schedule, compile_indirect, run_executor
from repro.codegen.nddist import (
    collect_nd,
    compile_clause_nd_dist,
    run_distributed_nd,
)
from repro.core import (
    PAR,
    SEQ,
    AffineF,
    Bounds,
    Clause,
    IdentityF,
    IndexSet,
    Ref,
    SeparableMap,
    copy_env,
    evaluate_clause,
)
from repro.core.ifunc import IndirectF, ModularF, MonotoneF
from repro.decomp import Block, BlockScatter, Collapsed, GridDecomposition, Scatter
from repro.machine import DistributedMachine
from repro.pipeline.region import vec
from repro.sets import Work, choose_rule, modify_naive
from repro.sets.enumerators import (
    Segment,
    _course_range,
    enum_repeated_block,
    enum_repeated_scatter,
)

SETTINGS = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _dec(kind, n, pmax, b):
    if kind == "block":
        return Block(n, pmax)
    if kind == "scatter":
        return Scatter(n, pmax)
    return BlockScatter(n, pmax, b)


dec_kind = st.sampled_from(["block", "scatter", "bs"])


class TestDoacrossProperty:
    @given(
        st.integers(6, 36), st.integers(1, 5), st.integers(1, 3),
        dec_kind, st.integers(1, 4), st.integers(0, 2**16), st.booleans(),
    )
    @SETTINGS
    def test_pipeline_equals_sequential_oracle(
        self, n, pmax, s, kind, b, seed, guarded
    ):
        dA = _dec(kind, n, pmax, b)
        dB = Scatter(n, pmax)
        guard = (Ref("B", SeparableMap([AffineF(1, 0)])) > 0.4
                 if guarded else None)
        cl = Clause(
            IndexSet.range1d(s, n - 1),
            Ref("A", SeparableMap([AffineF(1, 0)])),
            Ref("A", SeparableMap([AffineF(1, -s)])) * 0.5
            + Ref("B", SeparableMap([AffineF(1, 0)])),
            ordering=SEQ,
            guard=guard,
        )
        rng = np.random.default_rng(seed)
        env0 = {"A": rng.random(n), "B": rng.random(n)}
        ref = evaluate_clause(cl, copy_env(env0))["A"]
        plan = compile_doacross(cl, {"A": dA, "B": dB})
        m = run_doacross(plan, copy_env(env0))
        assert np.allclose(m.collect("A"), ref)


class TestNdDistProperty:
    @given(
        st.integers(3, 8), st.integers(3, 8),
        st.sampled_from(["block", "scatter"]),
        st.sampled_from(["block", "scatter", "collapsed"]),
        st.integers(0, 1), st.integers(0, 2**16),
    )
    @SETTINGS
    def test_2d_shift_equals_oracle(self, n, m, k0, k1, shift_axis, seed):
        def axis(kind, sz):
            if kind == "collapsed":
                return Collapsed(sz)
            return Block(sz, 2) if kind == "block" else Scatter(sz, 2)

        g = GridDecomposition([axis(k0, n), axis(k1, m)])
        fi = AffineF(1, 1) if shift_axis == 0 else IdentityF()
        fj = AffineF(1, 1) if shift_axis == 1 else IdentityF()
        hi0 = n - 1 - (1 if shift_axis == 0 else 0)
        hi1 = m - 1 - (1 if shift_axis == 1 else 0)
        cl = Clause(
            IndexSet(Bounds((0, 0), (hi0, hi1))),
            Ref("T", SeparableMap([IdentityF(), IdentityF()])),
            Ref("S", SeparableMap([fi, fj])) * 2,
        )
        rng = np.random.default_rng(seed)
        env0 = {"S": rng.random((n, m)), "T": np.zeros((n, m))}
        ref = evaluate_clause(cl, copy_env(env0))["T"]
        plan = compile_clause_nd_dist(cl, {"T": g, "S": g})
        mach = run_distributed_nd(plan, copy_env(env0))
        assert np.allclose(collect_nd(mach, "T"), ref)


class TestInspectorProperty:
    @given(
        st.integers(4, 32), st.integers(1, 5),
        st.sampled_from(["block", "scatter"]),
        st.sampled_from(["block", "scatter"]),
        st.integers(0, 2**16),
    )
    @SETTINGS
    def test_executor_equals_oracle(self, n, pmax, ka, kb, seed):
        rng = np.random.default_rng(seed)
        table = rng.integers(0, n, n)
        cl = Clause(
            IndexSet.range1d(0, n - 1),
            Ref("A", SeparableMap([AffineF(1, 0)])),
            Ref("B", SeparableMap([IndirectF(table)])) * 2 + 1,
        )
        env0 = {"A": np.zeros(n), "B": rng.random(n)}
        ref = evaluate_clause(cl, copy_env(env0))["A"]
        dA = _dec(ka, n, pmax, 2)
        dB = _dec(kb, n, pmax, 2)
        plan = compile_indirect(cl, {"A": dA, "B": dB})
        sched = build_schedule(plan)
        m = DistributedMachine(pmax)
        m.place("A", env0["A"], dA)
        m.place("B", env0["B"], dB)
        run_executor(sched, m)
        assert np.allclose(m.collect("A"), ref)


class _ObjectForm(NamedTuple):
    """What an enumerator returned before Table I emitted arrays: the
    fired rule and one :class:`Segment` object per row."""

    rule: str
    segments: List[Segment]


def _assert_matches(got, got_work, want, want_work):
    """The array form *got* is the object form *want*: same rows, the
    key is their sorted expansion, same member order, same `Work`."""
    assert got.rule == want.rule
    assert got.segments == want.segments
    members = [i for s in want.segments for i in s.indices()]
    assert np.array_equal(vec(got.key), np.unique(np.array(members, np.int64)))
    assert got.indices() == members
    assert vars(got_work) == vars(want_work)


def _scalar_repeated_scatter(d, f, imin, imax, p, work):
    """The one-call-per-(offset, course) body `enum_repeated_scatter`
    had before it went to grid arithmetic — the oracle for its segments
    and for every :class:`Work` counter."""
    from repro.diophantine.euclid import extended_euclid

    kmin, kmax = _course_range(d, f, imin, imax, p)
    if kmax < kmin:
        return _ObjectForm("repeated-scatter", [])
    stride = d.b * d.pmax
    pts = []
    if isinstance(f, AffineF) and abs(f.a) != 1:
        a = abs(f.a)
        res = extended_euclid(stride % a if stride % a else a, a)
        work.euclid_steps += res.steps
        g = res.g
        for off in range(d.b):
            t = d.b * p + off
            work.iterations += 1
            rhs = (f.c - t) % a
            if rhs % g:
                continue
            k0 = (res.x * (rhs // g)) % (a // g)
            for k in range(kmin + (k0 - kmin) % (a // g), kmax + 1, a // g):
                v = t + k * stride
                if v >= d.n:
                    break
                i, r = divmod(v - f.c, f.a)
                if r == 0 and imin <= i <= imax:
                    pts.append(i)
                    work.emitted += 1
    else:
        for off in range(d.b):
            t = d.b * p + off
            for k in range(kmin, kmax + 1):
                v = t + k * stride
                if v >= d.n:
                    break
                work.iterations += 1
                work.tests += 1
                for i in f.solve(v, imin, imax):
                    pts.append(i)
                    work.emitted += 1
    return _ObjectForm("repeated-scatter", [Segment(i, i) for i in sorted(pts)])


def _object_repeated_block(d, f, imin, imax, p, work):
    """`enum_repeated_block` as it was when it built one `Segment` per
    course — the oracle for its rows and every :class:`Work` counter."""
    segs = []
    kmin, kmax = _course_range(d, f, imin, imax, p)
    for k in range(kmin, kmax + 1):
        t = p + k * d.pmax
        lo = d.b * t
        hi = min(lo + d.b - 1, d.n - 1)
        if lo > hi:
            continue
        work.iterations += 1
        work.preimage_calls += 1
        for jmin, jmax in f.preimage(lo, hi, imin, imax):
            if jmin <= jmax:
                segs.append(Segment(jmin, jmax))
            work.emitted += jmax - jmin + 1
    segs.sort(key=lambda s: s.lo)
    return _ObjectForm("thm2-repeated-block", segs)


def _object_inner(d, f, imin, imax, p, work):
    """One monotone piece through the Table I rule, object form: the two
    BS(b) forms by their oracles, the one-row rules by their segments."""
    _rule, fn = choose_rule(d, f, imin, imax)
    oracle = {enum_repeated_block: _object_repeated_block,
              enum_repeated_scatter: _scalar_repeated_scatter}.get(fn)
    if oracle is not None:
        return oracle(d, f, imin, imax, p, work)
    e = fn(d, f, imin, imax, p, work)
    return _ObjectForm(e.rule, e.segments)


def _object_piecewise(d, f, imin, imax, p, work):
    """`enum_piecewise` as it was when it extended one `Segment` list
    piece by piece — the oracle for the concatenation."""
    rule, segs = "piecewise", []
    for seg_lo, seg_hi, piece in f.pieces(imin, imax):
        work.iterations += 1
        sub = _object_inner(d, piece, seg_lo, seg_hi, p, work)
        segs.extend(sub.segments)
        rule = f"piecewise({sub.rule})"
    segs.sort(key=lambda s: s.lo)
    return _ObjectForm(rule, segs)


class TestRepeatedScatterFastPath:
    @given(
        st.integers(1, 60), st.integers(1, 8), st.integers(1, 6),
        st.sampled_from([2, 3, 4, 5, 6, 7, -2, -3, -5]),
        st.integers(-5, 10),
    )
    @settings(max_examples=300, deadline=None)
    def test_congruence_path_matches_naive(self, n, pmax, b, a, c):
        d = BlockScatter(n, pmax, b)
        f = AffineF(a, c)
        cand = [i for i in range(-20, 100) if 0 <= f(i) < n]
        assume(cand)
        imin, imax = min(cand), max(cand)
        assume(all(i in cand for i in range(imin, imax + 1)))
        for p in range(pmax):
            got = enum_repeated_scatter(d, f, imin, imax, p, Work()).indices()
            assert got == modify_naive(d, f, imin, imax, p)

    @given(
        st.integers(1, 60), st.integers(1, 8), st.integers(1, 6),
        st.sampled_from([1, -1, 2, 3, 4, 5, 6, 7, -2, -3, -5]),
        st.integers(-5, 10), st.integers(-20, 40), st.integers(0, 60),
    )
    @settings(max_examples=300, deadline=None)
    def test_grid_arithmetic_matches_the_scalar_walk(self, n, pmax, b, a, c,
                                                     imin, span):
        """Same segments, same `Work` — iterations, tests, emitted,
        euclid_steps — whether or not the image stays inside the array."""
        d = BlockScatter(n, pmax, b)
        f = AffineF(a, c)
        for p in range(pmax):
            want_work, got_work = Work(), Work()
            want = _scalar_repeated_scatter(d, f, imin, imin + span, p,
                                            want_work)
            got = enum_repeated_scatter(d, f, imin, imin + span, p, got_work)
            _assert_matches(got, got_work, want, want_work)


def _monotone(kind, c):
    """A monotone non-affine access on ``i >= 0``: increasing or
    decreasing quadratic."""
    if kind == "up":
        return MonotoneF(lambda i: i * i + c, 1, f"i*i{c:+d}")
    return MonotoneF(lambda i: c - i * i, -1, f"{c}-i*i")


class TestArrayFormMatchesObjectForm:
    """Table I emits arrays: the two BS(b) forms and the piecewise
    concatenation against the object-form bodies they replaced."""

    @given(
        st.integers(1, 80), st.integers(1, 6), st.integers(1, 6),
        st.sampled_from([1, -1, 2, 3, -2, -3, 5]),
        st.integers(-5, 20), st.integers(-10, 30), st.integers(0, 40),
    )
    @settings(max_examples=150, deadline=None)
    def test_repeated_block_affine(self, n, pmax, b, a, c, imin, span):
        d, f = BlockScatter(n, pmax, b), AffineF(a, c)
        for p in range(pmax):
            want_work, got_work = Work(), Work()
            want = _object_repeated_block(d, f, imin, imin + span, p,
                                          want_work)
            got = enum_repeated_block(d, f, imin, imin + span, p, got_work)
            _assert_matches(got, got_work, want, want_work)

    @given(
        st.integers(1, 200), st.integers(1, 6), st.integers(1, 6),
        st.sampled_from(["up", "down"]), st.integers(-5, 120),
        st.integers(0, 8), st.integers(0, 12),
    )
    @settings(max_examples=100, deadline=None)
    def test_repeated_block_monotone(self, n, pmax, b, kind, c, imin, span):
        d, f = BlockScatter(n, pmax, b), _monotone(kind, c)
        for p in range(pmax):
            want_work, got_work = Work(), Work()
            want = _object_repeated_block(d, f, imin, imin + span, p,
                                          want_work)
            got = enum_repeated_block(d, f, imin, imin + span, p, got_work)
            _assert_matches(got, got_work, want, want_work)

    @given(
        st.sampled_from(["blockscatter", "block", "scatter"]),
        st.integers(2, 60), st.integers(1, 6), st.integers(1, 4),
        st.integers(1, 3), st.integers(-5, 20), st.integers(1, 60),
        st.integers(0, 5), st.integers(0, 10), st.integers(0, 50),
    )
    @settings(max_examples=150, deadline=None)
    def test_piecewise(self, kind, n, pmax, b, a, c, z, dz, imin, span):
        dec = {"blockscatter": BlockScatter(n, pmax, b),
               "block": Block(n, pmax), "scatter": Scatter(n, pmax)}[kind]
        z = min(z, n)
        f = ModularF(AffineF(a, c), z, min(dz, n - z))
        rule, fn = choose_rule(dec, f, imin, imin + span)
        assert rule.startswith("piecewise(")
        for p in range(pmax):
            want_work, got_work = Work(), Work()
            want = _object_piecewise(dec, f, imin, imin + span, p, want_work)
            got = fn(dec, f, imin, imin + span, p, got_work)
            _assert_matches(got, got_work, want, want_work)
