"""Hypothesis property tests for the extension code generators:
DOACROSS pipelines, ND distributed generation, inspector/executor, and
the repeated-scatter affine fast path — each against the sequential
V-cal oracle or the naive membership definition."""

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
from repro.core.ifunc import IndirectF
from repro.decomp import Block, BlockScatter, Collapsed, GridDecomposition, Scatter
from repro.machine import DistributedMachine
from repro.sets import Work, modify_naive
from repro.sets.enumerators import enum_repeated_scatter

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


def _scalar_repeated_scatter(d, f, imin, imax, p, work):
    """The one-call-per-(offset, course) body `enum_repeated_scatter`
    had before it went to grid arithmetic — the oracle for its segments
    and for every :class:`Work` counter."""
    from repro.diophantine.euclid import extended_euclid
    from repro.sets.enumerators import Enumeration, _course_range

    e = Enumeration("repeated-scatter")
    kmin, kmax = _course_range(d, f, imin, imax, p)
    if kmax < kmin:
        return e
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
    for i in sorted(pts):
        e.add(i, i)
    return e


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
            assert got.segments == want.segments
            assert got.rule == want.rule
            assert vars(got_work) == vars(want_work)
