"""Region-keyed kernels: the key algebra, the differential against the
element oracle (``_member_vecs`` lane vectors and the counters they
imply), the timing-free complexity guard, and what ``describe()``
reports."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import check_schedule, sanitize_kernels, verify_ir
from repro.codegen.nddist import compile_clause_nd_dist
from repro.codegen.plan import compile_clause
from repro.core import (
    AffineF,
    Bounds,
    Clause,
    ConstantF,
    IdentityF,
    IndexSet,
    LoopIndex,
    ModularF,
    Ref,
    SeparableMap,
)
from repro.core.ifunc import apply_ifunc
from repro.core.view import ProjectedMap
from repro.decomp import (
    Block,
    BlockScatter,
    GridDecomposition,
    Replicated,
    Scatter,
)
from repro.diophantine.linear import CongruenceSolution
from repro.machine import NodeStats
from repro.pipeline import clear_plan_cache, compile_plan
from repro.pipeline.kernels import _approx_nbytes, _leaves, flavor_nodes
from repro.analysis.support import first_members
from repro.pipeline.region import (
    Region,
    TwoLevel,
    _ascending,
    compose,
    compress,
    image,
    klen,
    locate,
    meet,
    minus,
    overhang,
    overlap,
    prog,
    tiles,
    vec,
)
from repro.runtime.lowering import lower_dist, lower_shared
from repro.sets.enumerators import Enumeration, Segment

from .conftest import IN_PROCESS_TIERS, check_all_tiers, counters


# ---------------------------------------------------------------------------
# the key algebra against plain NumPy
# ---------------------------------------------------------------------------

progressions = st.tuples(st.integers(0, 40), st.integers(1, 7),
                         st.integers(0, 12))


def vectors(min_size=0):
    return st.lists(st.integers(0, 60), min_size=min_size, max_size=12,
                    unique=True).map(
        lambda xs: np.array(sorted(xs), dtype=np.int64))


def keys(min_size=0):
    return st.one_of(
        progressions.filter(lambda t: t[2] >= min_size).map(
            lambda t: prog(*t)),
        vectors(min_size).map(compress), vectors(min_size))


class TestKeys:
    @given(st.integers(-5, 40), st.integers(-7, 7), st.integers(0, 12))
    def test_prog_addresses_exactly_its_terms(self, start, step, count):
        want = start + step * np.arange(count)
        key = prog(start, step, count)
        if step == 0 and count > 1:
            want = want[:1]  # a zero stride collapses: the axis broadcasts
        assert np.array_equal(vec(key), want)
        if isinstance(key, slice):
            assert want.size == 0 or want.min() >= 0
            assert np.array_equal(np.arange(200)[key], want)

    @given(vectors())
    def test_compress_keeps_the_elements(self, v):
        key = compress(v)
        assert np.array_equal(vec(key), v) and klen(key) == v.size
        if v.size > 1 and len(set(np.diff(v))) == 1:
            assert isinstance(key, slice)

    @given(st.lists(progressions, max_size=5))
    def test_enumeration_key_is_the_sorted_members(self, progs):
        segs = [Segment(lo, lo + step * (n - 1), step)
                for lo, step, n in progs if n]
        e = Enumeration.table("x", [s.lo for s in segs],
                              [s.hi for s in segs], [s.step for s in segs])
        want = np.unique(np.concatenate(
            [s.index_array() for s in segs] or [np.zeros(0, np.int64)]))
        assert np.array_equal(vec(e.key), want)
        assert e.segments == segs
        assert e.indices() == [i for s in segs for i in s.indices()]

    @given(keys(), keys())
    def test_meet_is_the_intersection(self, a, b):
        assert np.array_equal(vec(meet(a, b)),
                              np.intersect1d(vec(a), vec(b)))

    @given(keys(), keys())
    def test_minus_is_the_difference(self, a, b):
        got = minus(a, b)
        want = sorted(set(vec(a).tolist()) - set(vec(b).tolist()))
        assert vec(got).tolist() == want
        if len({y - x for x, y in zip(want, want[1:])}) <= 1:
            assert isinstance(got, slice)  # one progression stays one

    @given(keys(min_size=1), st.data())
    def test_locate_inverts_compose(self, base, data):
        pos = data.draw(st.one_of(
            st.tuples(st.integers(0, klen(base) - 1), st.integers(1, 3),
                      st.integers(0, 4)).map(
                lambda t: prog(t[0], t[1],
                               min(t[2], (klen(base) - 1 - t[0]) // t[1] + 1))),
            st.lists(st.integers(0, klen(base) - 1), max_size=6,
                     unique=True).map(
                lambda xs: np.array(xs, dtype=np.int64))))
        sub = compose(base, pos)
        assert np.array_equal(vec(sub), vec(base)[vec(pos)])
        assert np.array_equal(vec(locate(sub, base)), vec(pos))

    @given(progressions, st.sampled_from([
        IdentityF(), AffineF(1, 3), AffineF(-1, 90), AffineF(2, 1),
        ConstantF(4), ModularF(AffineF(1, 6), 20)]))
    def test_image_applies_the_access_function(self, t, f):
        key = image(f, prog(*t))
        want = np.array([f(int(i)) for i in vec(prog(*t))], dtype=np.int64)
        if klen(key) == 1 and want.size > 1:
            want = np.unique(want)  # a constant image broadcasts
        assert np.array_equal(vec(key), want)


    @given(st.integers(0, 40), st.sampled_from([1, -1, 2, -3]),
           st.integers(0, 12), st.integers(0, 40), st.integers(0, 12),
           st.sampled_from([1, 1, 1, 2]))
    def test_overhang_is_what_sticks_out_of_the_owned_run(
            self, start, step, count, o0, on, ostep):
        """Ghost widths: only a unit-stride run (either way) meeting a
        unit-stride owned run stored in order has any."""
        key = prog(start + (12 * abs(step) if step < 0 else 0), step, count)
        own = slice(o0, o0 + on * ostep, ostep)
        a, o = vec(key), vec(own)
        ok = a.size and o.size and set(np.abs(np.diff(a))) <= {1} \
            and ostep == 1 \
            and a.max() >= o[0] and a.min() <= o[-1]
        want = (max(0, o[0] - a.min()), max(0, a.max() - o[-1])) \
            if ok else None
        assert overhang(key, own, slice(0, on)) == want
        assert overhang(vec(key), own, slice(0, on)) is None
        assert overhang(key, own, np.arange(on)) is None
        assert overhang(key, own, slice(1, on + 1)) is None


def two_levels():
    """``tiles`` keys: empty levels, single courses and inner spans one
    short of the outer step included (``gap`` 1)."""
    return st.tuples(st.integers(0, 30), st.integers(1, 4),
                     st.integers(0, 5), st.integers(1, 6),
                     st.integers(0, 5)).map(
        lambda t: (t[0], t[1] * max(t[2] - 1, 0) + t[3], t[4], t[1], t[2]))


def grid_members(start, ostep, ocount, istep, icount):
    return [start + ostep * k + istep * t
            for k in range(ocount) for t in range(icount)]


class TestTwoLevelKeys:
    """The two-level key ``outer ⊗ inner`` through the whole algebra,
    against the set it stands for."""

    @given(two_levels())
    def test_members_and_length(self, g):
        key = tiles(*g)
        assert vec(key).tolist() == grid_members(*g) and \
            klen(key) == g[2] * g[4]
        if isinstance(key, TwoLevel):
            assert len(set(np.diff(vec(key)).tolist())) > 1
        else:  # one course, one offset or touching courses
            assert g[2] * g[4] == 0 or g[2] == 1 or g[4] == 1 \
                or g[1] == g[3] * g[4]

    @given(two_levels(), st.one_of(two_levels().map(lambda g: tiles(*g)),
                                   keys()))
    def test_meet_and_minus_against_every_form(self, g, other):
        key = tiles(*g)
        a, b = set(grid_members(*g)), set(vec(other).tolist())
        assert vec(meet(key, other)).tolist() == sorted(a & b)
        assert vec(meet(other, key)).tolist() == sorted(a & b)
        assert vec(minus(key, other)).tolist() == sorted(a - b)
        assert vec(minus(other, key)).tolist() == sorted(b - a)

    @given(two_levels(), st.data())
    def test_compose_and_locate_round_trip(self, g, data):
        key = tiles(*g)
        n = klen(key)
        if not n:
            return
        pos = data.draw(st.one_of(
            st.tuples(st.integers(0, n - 1), st.integers(1, 4),
                      st.integers(0, n)).map(
                lambda t: prog(t[0], t[1],
                               min(t[2], (n - 1 - t[0]) // t[1] + 1))),
            st.lists(st.integers(0, n - 1), max_size=8, unique=True).map(
                lambda xs: np.array(sorted(xs), dtype=np.int64))))
        sub = compose(key, pos)
        assert vec(sub).tolist() == vec(key)[vec(pos)].tolist()
        assert vec(locate(sub, key)).tolist() == vec(pos).tolist()
        for cap in (0, 1, 3, n + 2):
            assert first_members(key, cap) == grid_members(*g)[:cap]

    @given(two_levels(), st.sampled_from([1, -1, 2, -2, 3, -3]),
           st.integers(-20, 40))
    def test_image_under_affine_maps(self, g, a, c):
        f = AffineF(a, c)
        key = image(f, tiles(*g))
        want = [f(i) for i in grid_members(*g)]
        assert vec(key).tolist() == want and klen(key) == len(want)
        assert vec(_ascending(key)).tolist() == sorted(want)

    @given(two_levels(), st.booleans())
    def test_region_take_and_store(self, g, guarded):
        key = tiles(*g)
        members = grid_members(*g)
        region = Region([key], (0,), (len(members),))
        arr = np.arange(200.0)
        assert region.take(arr).tolist() == arr[members].tolist()
        values = np.arange(len(members), dtype=np.float64) + 0.5
        mask = np.arange(len(members)) % 2 == 0 if guarded else None
        got, want = np.zeros(200), np.zeros(200)
        stored = region.store(got, values, mask)
        keep = np.ones(len(members), bool) if mask is None else mask
        want[np.array(members, dtype=np.int64)[keep]] = values[keep]
        assert np.array_equal(got, want) and stored == int(keep.sum())


class TestRegion:
    def test_sliced_take_is_a_view_in_lane_layout(self):
        arr = np.arange(48.0).reshape(6, 8)
        # a transposed access A[j, i] over lanes (i, j) of shape (3, 4)
        r = Region([prog(1, 1, 4), prog(2, 2, 3)], (1, 0), (3, 4))
        assert r.sliced and r.view
        got = r.take(arr)
        assert got.shape == (3, 4) and np.shares_memory(got, arr)
        assert np.array_equal(got, arr[1:5, 2:8:2].T)

    def test_lower_rank_and_constant_keys_broadcast(self):
        x = np.arange(10.0)
        r = Region([prog(2, 1, 4)], (1,), (3, 4))  # x[j] in an (i, j) loop
        assert r.take(x).shape == (1, 4) and not r.view
        c = Region([prog(7, 0, 5)], (0,), (5,))    # x[7] on every lane
        assert np.array_equal(np.broadcast_to(c.take(x), (5,)), [7.0] * 5)
        assert np.array_equal(c.index_vectors()[0], [7] * 5)

    def test_vector_key_goes_through_ix(self):
        arr = np.arange(48.0).reshape(6, 8)
        r = Region([np.array([0, 1, 4]), prog(0, 1, 8)], (0, 1), (3, 8))
        assert not r.sliced
        assert np.array_equal(r.take(arr), arr[[0, 1, 4]])
        assert not np.shares_memory(r.take(arr), arr)

    @given(st.lists(st.tuples(keys(), st.booleans()), min_size=4,
                    max_size=4))
    def test_overlap_is_the_smallest_shared_element(self, drawn):
        """SCHED002's intersection test: products meet iff their keys
        meet on every axis, in whatever order the keys run."""
        k = [compress(vec(key)[::-1]) if flip else key
             for key, flip in drawn]
        a = Region(k[:2], (0, 1), (klen(k[0]), klen(k[1])))
        b = Region(k[2:], (0, 1), (klen(k[2]), klen(k[3])))
        elements = [set(zip(*(v.tolist() for v in r.index_vectors())))
                    for r in (a, b)]
        shared = elements[0] & elements[1]
        # on the raw keys too: a footprint keeps its two-level keys
        assert overlap(a.keys, b.keys) == overlap(k[:2], k[2:]) == \
            (min(shared) if shared else None)

    def test_clipping_slice_raises_instead_of_shrinking(self):
        with pytest.raises(IndexError):
            Region([slice(0, 100, 1)], (0,), (100,)).take(np.zeros(10))

    @pytest.mark.parametrize("region", [
        Region([prog(1, 1, 4), prog(2, 2, 3)], (1, 0), (3, 4)),
        Region([np.array([5, 0, 3]), prog(1, 1, 4)], (0, 1), (3, 4)),
        Region([prog(2, 0, 3), prog(1, 1, 4)], (0, 1), (3, 4)),  # repeats
    ])
    @pytest.mark.parametrize("guarded", [False, True])
    def test_store_matches_the_lane_vector_store(self, region, guarded):
        rng = np.random.default_rng(3)
        values = rng.random(region.shape)
        mask = rng.random(region.shape) > 0.5 if guarded else None
        got, want = np.zeros((6, 8)), np.zeros((6, 8))
        stored = region.store(got, values, mask)
        keys, flat = region.index_vectors(), values.ravel()
        if guarded:
            keys, flat = tuple(k[mask.ravel()] for k in keys), \
                flat[mask.ravel()]
        want[keys] = flat
        assert np.array_equal(got, want) and stored == flat.size

    def test_lane_vectors_are_built_once_per_block(self):
        """The vector path of :meth:`store` materializes a region's lane
        vectors on first use and keeps them, whatever the step count —
        on a bare region and on a block of a lowered plan alike."""
        region = Region([np.array([5, 0, 3]), prog(1, 1, 4)], (0, 1), (3, 4))
        out = np.zeros((6, 8))
        region.store(out, np.ones(region.shape))
        vecs = region.index_vectors()
        region.store(out, np.ones(region.shape))
        assert region.index_vectors() is vecs
        n = 24
        cl = Clause(IndexSet(Bounds((1,), (n - 2,))),
                    Ref("A", SeparableMap([IdentityF()])),
                    Ref("B", SeparableMap([AffineF(1, -1)])) * 0.5)
        ir = compile_plan(cl, {"A": Block(n, 4), "B": Block(n, 4)})
        blk = lower_dist(ir).nodes[1].interior
        vecs = blk.loop.index_vectors()
        assert vecs is blk.loop.index_vectors()
        assert all(v.dtype == np.int64 for v in vecs)


# ---------------------------------------------------------------------------
# the element oracle: membership and placement as lane vectors, straight
# from ``enumerate(p)`` and ``proc_array`` / ``local_array`` — what the
# retired vector tier executed, independent of repro.pipeline.region
# ---------------------------------------------------------------------------

def _offsets(region, shape):
    """Row-major offset of every lane of *region* into an array of
    *shape*."""
    v = region.index_vectors()
    return v[0] if len(v) == 1 else np.ravel_multi_index(v, tuple(shape))


def _member_vecs(ir, acc, p, flat=True):
    """Per-loop-dimension index vectors whose implicit Cartesian product
    (row-major, flattened) is the access's membership set on node *p*:
    ``len(loop_bounds)`` vectors of equal length, one entry per member
    index tuple, in lexicographic order (``flat=False``: the factors of
    that product, one per loop dimension)."""
    coord = acc.grid_coord(p)
    per_dim = []
    for d, (lo, hi) in enumerate(ir.loop_bounds):
        if acc.axes and d in acc.dims:
            k = acc.dims.index(d)
            per_dim.append(
                acc.axes[k].access.enumerate(coord[k]).index_array())
        else:
            per_dim.append(np.arange(lo, hi + 1, dtype=np.int64))
    if len(per_dim) == 1 or not flat:
        return per_dim
    return [m.ravel() for m in np.meshgrid(*per_dim, indexing="ij")]


def _array_vecs(acc, idx_vecs):
    """The access's array index vectors ``f_k(i_{dims[k]})``."""
    return [apply_ifunc(f, idx_vecs[d]) for d, f in zip(acc.dims, acc.funcs)]


def _proc_linear(acc, idx_vecs):
    """Owning (linear) processor of every member index tuple."""
    ai = _array_vecs(acc, idx_vecs)
    dec = acc.dec
    if isinstance(dec, GridDecomposition):
        out = np.zeros(ai[0].shape, dtype=np.int64)
        for axis_dec, g, a in zip(dec.dims, dec.grid_shape, ai):
            out = out * g + axis_dec.proc_array(a)
        return out
    return dec.proc_array(ai[0])


def _local_key(acc, idx_vecs):
    """Local-buffer index (vector or tuple of vectors) of every member."""
    ai = _array_vecs(acc, idx_vecs)
    dec = acc.dec
    if isinstance(dec, GridDecomposition):
        return tuple(
            axis_dec.local_array(a) for axis_dec, a in zip(dec.dims, ai))
    if acc.replicated:
        return tuple(ai) if len(ai) > 1 else ai[0]
    return dec.local_array(ai[0])


def _interior_mask(ir, p, idx_vecs):
    """Boolean mask over the flattened ``Modify_p`` enumeration selecting
    the node's interior: the AND of the per-dimension memberships in the
    `split-interior` keys."""
    mask = np.ones(idx_vecs[0].size, dtype=bool)
    for d, key in enumerate(ir.interior_split.per_node[p].interior):
        mask &= np.isin(idx_vecs[d], vec(key))
    return mask


def expected_counters(ir, env, dist):
    """Per node, the counters (as :func:`counters` reports them) a
    batching tier must show after running *ir* on *env*: ``Modify_p``
    walked once, one store per lane the sequential evaluator's guard
    keeps, one barrier — and on the distributed machine ``Reside_p``
    walked once per placed read, one message per (read, peer) pair
    carrying exactly the elements the peer's ``Modify`` reads from
    here."""
    kept = set(ir.clause.iter_indices(env))
    nodes = [NodeStats(barriers=1) for _ in range(ir.pmax)]
    for p, st in enumerate(nodes):
        idx = _member_vecs(ir, ir.write, p)
        st.iterations += int(idx[0].size)
        st.local_updates = sum(
            i in kept for i in zip(*(v.tolist() for v in idx)))
        for acc in ir.reads if dist else ():
            if acc.replicated:
                continue
            r_idx = _member_vecs(ir, acc, p)
            st.iterations += int(r_idx[0].size)
            dest = _proc_linear(ir.write, r_idx)
            st.sends += len(set(dest.tolist()) - {p})
            st.elements_sent += int((dest != p).sum())
            src = _proc_linear(acc, idx)
            st.recvs += len(set(src.tolist()) - {p})
            st.elements_received += int((src != p).sum())
    return [vars(st) for st in nodes]


# ---------------------------------------------------------------------------
# differential: region-keyed fused vs the lane vectors of _member_vecs
# ---------------------------------------------------------------------------

SHAPES = {1: ((24,), (4,)), 2: ((12, 8), (2, 2)), 3: ((6, 4, 4), (2, 1, 2))}


def axis_dec(kind, n, p):
    return {"block": lambda: Block(n, p), "scatter": lambda: Scatter(n, p),
            "bs-multi": lambda: BlockScatter(n, p, 2),
            "bs-one": lambda: BlockScatter(n, p, -(-n // p))}[kind]()


def access(kind, n, c, cap=2):
    """``(f, lo, hi)``: an access function and the loop range keeping
    its image inside ``[0, n)``; a shift reaches at most *cap*."""
    c %= n
    return {
        "identity": lambda: (IdentityF(), 0, n - 1),
        "shift+": lambda: (AffineF(1, min(c, cap)), 0, n - 1 - min(c, cap)),
        "shift-": lambda: (AffineF(1, -min(c, cap)), min(c, cap), n - 1),
        "reverse": lambda: (AffineF(-1, n - 1), 0, n - 1),
        "stride2": lambda: (AffineF(2, c % 2), 0, (n - 1 - c % 2) // 2),
        "stride3": lambda: (AffineF(3, c % 3), 0, (n - 1 - c % 3) // 3),
        "rotate": lambda: (ModularF(AffineF(1, c), n), 0, n - 1),
        "constant": lambda: (ConstantF(c), 0, n - 1),
    }[kind]()


DEC = st.sampled_from(["block", "scatter", "bs-multi", "bs-one"])
READ_F = st.sampled_from(["identity", "shift+", "shift-", "reverse",
                          "stride2", "rotate", "constant"])
WRITE_F = st.sampled_from(["identity", "shift+", "reverse"])


@st.composite
def clauses(draw):
    nd = draw(st.sampled_from([1, 2, 3]))
    extents, grid = SHAPES[nd]
    pmax = int(np.prod(grid))

    def decomposition():
        axes = [axis_dec(draw(DEC), n, p) for n, p in zip(extents, grid)]
        return axes[0] if nd == 1 else GridDecomposition(axes)

    def ref(name, kinds):
        funcs, bounds = [], []
        for kind, n, p in zip(kinds, extents, grid):
            # shifts up to a whole block: margins wider than a stencil's
            f, lo, hi = access(kind, n, draw(st.integers(0, 30)),
                               cap=-(-n // p))
            funcs.append(f)
            bounds.append((lo, hi))
        return Ref(name, SeparableMap(funcs)), bounds

    decomps = {"A": decomposition(), "B": decomposition()}
    lhs, wb = ref("A", [draw(WRITE_F) for _ in range(nd)])
    rb, bb = ref("B", [draw(READ_F) for _ in range(nd)])
    gb, _ = ref("B", ["identity"] * nd)
    rhs, limits = rb * 0.5, [wb, bb]
    if draw(st.booleans()):  # in place: the write target is read too
        ra, ab = ref("A", [draw(READ_F) for _ in range(nd)])
        rhs, limits = rhs + ra, limits + [ab]
    if draw(st.booleans()):  # a replicated (lower-rank) read
        d = draw(st.integers(0, nd - 1))
        f, lo, hi = access(draw(READ_F), extents[d], draw(st.integers(0, 30)))
        decomps["x"] = Replicated(extents[d], pmax)
        rhs = rhs + Ref("x", ProjectedMap((d,), (f,)))
        limits.append([(lo, hi) if e == d else (0, extents[e] - 1)
                       for e in range(nd)])
    if draw(st.booleans()):  # the body sees the loop index
        rhs = rhs + LoopIndex(draw(st.integers(0, nd - 1))) * 0.25
    lo = tuple(max(b[d][0] for b in limits) for d in range(nd))
    hi = tuple(min(b[d][1] for b in limits) for d in range(nd))
    clause = Clause(IndexSet(Bounds(lo, hi)), lhs, rhs,
                    guard=gb > 0.5 if draw(st.booleans()) else None)
    return clause, decomps, extents, draw(st.integers(0, 2**16))


def _owned(acc, p):
    """Per array axis ``(axis decomposition, the global indices node *p*
    owns)``, straight from ``proc_array``."""
    dec = acc.dec
    axes = dec.dims if isinstance(dec, GridDecomposition) else [dec]
    return [(ax, np.nonzero(ax.proc_array(np.arange(ax.n)) == c)[0])
            for ax, c in zip(axes, acc.grid_coord(p))]


def lane_vectors(acc, idx, local, nk=None):
    """Per array axis the lane vector the vector-keyed kernels held: the
    global index, its local slot — or, on a node *nk* that frames the
    array with ghost cells, global index - first owned index + ``lo``."""
    if not local:
        return tuple(_array_vecs(acc, idx))
    if nk is not None and acc.name in nk.margins:
        return tuple(a - own[0] + lo for a, (_, own), (lo, _hi) in zip(
            _array_vecs(acc, idx), _owned(acc, nk.p), nk.margins[acc.name]))
    key = _local_key(acc, idx)
    return key if isinstance(key, tuple) else (key,)


def expected_overhang(ir, acc, p):
    """Per array axis what the image of node *p*'s lanes reaches below
    and above its owned block — ``None`` unless the read is one the
    ghost form serves: not the write target, full rank, and on every
    axis a run of consecutive indices (either direction, one per lane)
    meeting an owned run that sits in slots ``0, 1, ...``."""
    if acc.name == ir.write.name or len(acc.dims) != len(ir.loop_bounds):
        return None
    per_dim, out = _member_vecs(ir, ir.write, p, flat=False), []
    for (ax, own), d, f in zip(_owned(acc, p), acc.dims, acc.funcs):
        a = apply_ifunc(f, per_dim[d])
        steps = set(np.diff(a).tolist())
        if not own.size or steps - {1} and steps - {-1} \
                or set(np.diff(own).tolist()) - {1} \
                or not np.array_equal(ax.local_array(own),
                                      np.arange(own.size)) \
                or a.max() < own[0] or a.min() > own[-1]:
            return None
        out.append((max(0, int(own[0] - a.min())),
                    max(0, int(a.max() - own[-1]))))
    return tuple(out)


def assert_region(region, want):
    got = region.index_vectors()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, np.asarray(w, dtype=np.int64))


def assert_node_matches_member_vecs(ir, nk, p, local):
    """One node kernel against the old lane-vector build, element for
    element."""
    idx = _member_vecs(ir, ir.write, p)
    n = int(idx[0].size)
    assert nk.n == n
    for s in getattr(nk, "sends", ()):
        acc = ir.reads[s.pos]
        r_idx = _member_vecs(ir, acc, p)
        assert s.count == int(r_idx[0].size)
        dest = _proc_linear(ir.write, r_idx)
        assert [q for q, _ in s.peers] == \
            [int(q) for q in np.unique(dest) if int(q) != p]
        for q, region in s.peers:
            assert_region(region, lane_vectors(
                acc, [v[dest == q] for v in r_idx], True, nk))
    if not n:
        assert not nk.margins
        return
    blocks, inner = list(nk.blocks), np.zeros(0, dtype=np.int64)
    if getattr(nk, "interior", None) is not None:
        blocks.insert(0, nk.interior)
        inner = np.nonzero(_interior_mask(ir, p, idx))[0]
        assert np.array_equal(_offsets(nk.interior.pos, nk.shape), inner)
    covered = np.concatenate([_offsets(b.pos, nk.shape) for b in blocks])
    assert np.array_equal(np.sort(covered), np.arange(n))
    for blk in blocks:
        lanes = _offsets(blk.pos, nk.shape)
        sub = [v[lanes] for v in idx]
        assert_region(blk.loop, sub)
        assert_region(blk.write, lane_vectors(ir.write, sub, local, nk))
        for g, want in zip(blk.grids, blk.loop.grids()):
            assert g is None or np.array_equal(g, want)
    margins = {}  # the tight frame: the widest overhang of a ghost read
    for r in nk.reads:
        acc = ir.reads[r.pos]
        src = _proc_linear(acc, idx) if local and not acc.replicated \
            else np.full(n, p)
        remote = [int(s) for s in np.unique(src[src != p])]
        assert [s for s, _ in r.sources] == remote
        # the interior commits before the drain: none of its lanes may
        # wait for a strip (residence is ownership, nothing declared)
        assert (src[inner] == p).all()
        over = expected_overhang(ir, acc, p) if remote else None
        assert (r.lanes is None) == (over is not None or not remote)
        if r.lanes is None:
            # every lane one slot of the (framed) memory; each strip
            # lands in the ghost cells of exactly its owner's lanes
            assert_region(r.mem, lane_vectors(acc, idx, local, nk))
            held = set(zip(*(v.tolist() for v in lane_vectors(
                acc, [v[inner] for v in idx], local, nk))))
            for s, fill in r.sources:
                assert held.isdisjoint(
                    zip(*(v.tolist() for v in fill.index_vectors())))
                assert fill.view and fill.shape == tuple(
                    len(np.unique(v[src == s])) for v in idx)
                assert_region(fill, lane_vectors(
                    acc, [v[src == s] for v in idx], True, nk))
            if over is not None:
                old = margins.get(acc.name, over)
                margins[acc.name] = tuple(
                    (max(a, c), max(b, d))
                    for (a, b), (c, d) in zip(over, old))
            continue
        assert np.array_equal(_offsets(r.lanes, nk.shape),
                              np.nonzero(src == p)[0])
        assert_region(r.mem, lane_vectors(
            acc, [v[src == p] for v in idx], True, nk))
        for s, fill in r.sources:
            assert np.array_equal(_offsets(fill, nk.shape),
                                  np.nonzero(src == s)[0])
            assert not np.isin(_offsets(fill, nk.shape), inner).any()
    assert nk.margins == margins
    for name, m in margins.items():
        acc = next(a for a in ir.reads if a.name == name)
        assert all(max(w) <= nk.shape[d] - 1 for w, d in zip(m, acc.dims))


class TestRegionKernelsDifferential:
    @settings(max_examples=60, deadline=None)
    @given(clauses())
    def test_fused_equals_vector_evaluator_and_member_vecs(self, case):
        clause, decomps, extents, seed = case
        rng = np.random.default_rng(seed)
        env = {name: rng.random(extents if name != "x" else dec.n)
               for name, dec in decomps.items()}
        plan, ran = check_all_tiers(clause, decomps, env,
                                    tiers=IN_PROCESS_TIERS)
        # one process per node: each union kernel is one node's lanes
        shared = flavor_nodes(plan, "union", procs=plan.pmax)
        dist = flavor_nodes(plan, "dist")
        # every counter of every node is what the element oracle implies
        assert counters(ran["shared", "fused"]) == \
            expected_counters(plan, env, dist=False)
        assert counters(ran["dist", "fused"]) == \
            expected_counters(plan, env, dist=True)
        for p in range(plan.pmax):
            assert_node_matches_member_vecs(plan, shared[p], p, False)
            assert_node_matches_member_vecs(plan, dist[p], p, True)


# ---------------------------------------------------------------------------
# differential: split-interior against an element-wise oracle
# ---------------------------------------------------------------------------

@st.composite
def split_cases(draw):
    nd = draw(st.sampled_from([1, 2]))
    extents, grid = SHAPES[nd]

    def decomposition(kinds):
        axes = [axis_dec(draw(kinds), n, p) for n, p in zip(extents, grid)]
        return axes[0] if nd == 1 else GridDecomposition(axes)

    def ref(name, kinds):
        spec = [access(draw(kinds), n, draw(st.integers(0, 30)))
                for n in extents]
        return (Ref(name, SeparableMap([f for f, _, _ in spec])),
                [(lo, hi) for _, lo, hi in spec])

    decomps = {"A": decomposition(DEC)}
    lhs, wb = ref("A", WRITE_F)
    rhs, limits = None, [wb]
    for name in "BC"[:draw(st.integers(1, 2))]:
        if nd == 1 and draw(st.integers(0, 5)) == 0:
            decomps[name] = Replicated(extents[0], grid[0])
        else:
            decomps[name] = decomposition(DEC)
        read, rb = ref(name, st.sampled_from([
            "identity", "shift+", "shift-", "stride2", "stride3", "reverse",
            "rotate"]))
        rhs, limits = read if rhs is None else rhs + read, limits + [rb]
    lo = tuple(max(b[d][0] for b in limits) for d in range(nd))
    hi = tuple(min(b[d][1] for b in limits) for d in range(nd))
    return Clause(IndexSet(Bounds(lo, hi)), lhs, rhs), decomps


@settings(max_examples=150, deadline=None)
@given(split_cases())
def test_split_interior_matches_the_element_oracle(case):
    """Per node: ``modify`` is ``Modify_p``, ``interior`` is the part of
    it whose every non-replicated read element the node *owns*."""
    clause, decomps = case
    clear_plan_cache()
    ir = compile_plan(clause, decomps)
    lanes = ir.member_keys(ir.write)
    domain = list(itertools.product(
        *(range(lo, hi + 1) for lo, hi in ir.loop_bounds)))
    for p, ns in ir.interior_split.per_node.items():
        modify = {idx for idx in domain if ir.write.proc_of(idx) == p}
        interior = {
            idx for idx in modify
            if all(ax.dec.proc(ax.func(idx[ax.loop_dim])) == c
                   for acc in ir.reads if not acc.replicated
                   for ax, c in zip(acc.axes, acc.grid_coord(p)))}
        assert ns.modify is lanes[p]  # the plan's keys, not a copy
        for keys_, want in ((ns.modify, modify), (ns.interior, interior)):
            assert all((np.diff(vec(k)) > 0).all() for k in keys_)
            assert set(itertools.product(
                *(vec(k).tolist() for k in keys_))) == want
        assert (ns.modify_count, ns.interior_count) == \
            (len(modify), len(interior))


# (loop rank, write layout, read layout, read access, guard, in place,
# replicated lower-rank read)
REAL_PROCESS_CASES = [
    (1, "block", "block", "shift+", False, False, False),
    (1, "block", "scatter", "reverse", True, False, False),
    (1, "scatter", "block", "stride2", False, True, False),
    (1, "bs-multi", "block", "shift-", True, True, False),
    (1, "block", "bs-multi", "stride2", False, False, True),
    (1, "scatter", "scatter", "reverse", False, True, True),
    (2, "block", "block", "shift+", False, False, False),
    (2, "block", "scatter", "reverse", True, False, False),
    (2, "bs-multi", "block", "stride2", False, True, False),
    (2, "block", "block", "shift-", True, True, True),
    (2, "scatter", "bs-multi", "shift+", False, False, True),
    (2, "bs-one", "block", "reverse", True, True, False),
]


@pytest.mark.parametrize(
    "nd, wkind, rkind, fkind, guarded, in_place, replicated",
    REAL_PROCESS_CASES)
def test_real_process_tiers_run_the_region_kernels(
        nd, wkind, rkind, fkind, guarded, in_place, replicated):
    """A slice of the differential through real worker processes and
    (stub) MPI ranks: bit-identical to the evaluator, every counter of
    every node equal to ``fused`` — and no fallback standing in."""
    extents, grid = SHAPES[nd]

    def decomposition(kind):
        axes = [axis_dec(kind, n, p) for n, p in zip(extents, grid)]
        return axes[0] if nd == 1 else GridDecomposition(axes)

    def ref(name, kind):
        spec = [access(kind, n, 1) for n in extents]
        return (Ref(name, SeparableMap([f for f, _, _ in spec])),
                [(lo, hi) for _, lo, hi in spec])

    decomps = {"A": decomposition(wkind), "B": decomposition(rkind)}
    lhs, limits = ref("A", "identity")
    rb, bb = ref("B", fkind)
    rhs, limits = rb * 0.5, [limits, bb]
    if in_place:
        ra, ab = ref("A", fkind)
        rhs, limits = rhs + ra, limits + [ab]
    if replicated:
        decomps["x"] = Replicated(extents[0], int(np.prod(grid)))
        rhs = rhs + Ref("x", ProjectedMap((0,), (IdentityF(),)))
    clause = Clause(
        IndexSet(Bounds(
            tuple(max(b[d][0] for b in limits) for d in range(nd)),
            tuple(min(b[d][1] for b in limits) for d in range(nd)))),
        lhs, rhs, guard=ref("B", "identity")[0] > 0.5 if guarded else None)
    rng = np.random.default_rng(7)
    env = {name: rng.random(extents if name != "x" else dec.n)
           for name, dec in decomps.items()}
    plan, ran = check_all_tiers(clause, decomps, env,
                                tiers=("fused", "mp", "mpi"))
    for tier in ("mp", "mpi"):
        assert ran["shared", tier].runtime_stats, tier
        assert ran["dist", tier].runtime_stats, tier
    assert ran["dist", "mpi"].mode == "stub"
    assert all(a is b for a, b in zip(lower_dist(plan).nodes,
                                      flavor_nodes(plan, "gdist")))
    # the two workers ran one union kernel per run of nodes (or per node
    # where a run's lanes tile no product), every node in exactly one;
    # in process the same clause ran as one block
    groups = lower_shared(plan, procs=2).nodes
    assert groups is flavor_nodes(plan, "union", procs=2)
    assert [p for nk in groups for p, _, _ in nk.parts] == \
        list(range(plan.pmax))
    assert len(flavor_nodes(plan, "union")) == 1


# ---------------------------------------------------------------------------
# complexity guard: lowering never expands a closed form
# ---------------------------------------------------------------------------

def _boom(*a, **kw):
    raise AssertionError("lower-kernels expanded a closed form per lane")


class TestLoweringStaysClosedForm:
    @pytest.fixture(autouse=True)
    def no_expansion(self, monkeypatch):
        clear_plan_cache()
        monkeypatch.setattr(Enumeration, "index_array", _boom)
        monkeypatch.setattr(Segment, "index_array", _boom)
        monkeypatch.setattr(Segment, "indices", _boom)
        monkeypatch.setattr(CongruenceSolution, "solutions_in", _boom)
        monkeypatch.setattr(np, "meshgrid", _boom)
        yield
        clear_plan_cache()

    @pytest.mark.parametrize("wdec, rdec", [
        (Block, Block), (Scatter, Scatter), (Block, Scatter),
        (Scatter, Block)])
    def test_e13_block_block_at_2_20(self, wdec, rdec):
        """Compile and verify stay closed-form whichever side strides:
        two progressions meet in one congruence."""
        n = 2**20
        cl = Clause(IndexSet.range1d(1, n - 2),
                    Ref("A", SeparableMap([IdentityF()])),
                    Ref("B", SeparableMap([AffineF(1, -1)]))
                    + Ref("B", SeparableMap([AffineF(1, 1)])))
        ir = compile_clause(cl, {"A": wdec(n, 4), "B": rdec(n, 4)})
        assert not verify_ir(ir).diagnostics
        for flavor, procs in (("union", 1), ("union", 2), ("dist", 1)):
            flavor_nodes(ir, flavor, procs=procs)
        stats = ir.kernels.region_stats
        assert stats["dist"]["vector"] == stats["union"]["vector"] == 0
        assert stats["bytes"] < 1 << 16  # O(pmax), not int64 lanes

    def test_e19_block_x_block_at_1024(self):
        n = 1024
        g = GridDecomposition([Block(n, 2), Block(n, 2)])

        def s(di, dj):
            return Ref("S", SeparableMap([AffineF(1, di), AffineF(1, dj)]))

        cl = Clause(IndexSet(Bounds((1, 1), (n - 2, n - 2))),
                    Ref("T", SeparableMap([IdentityF(), IdentityF()])),
                    (s(-1, 0) + s(1, 0) + s(0, -1) + s(0, 1)) * 0.25)
        ir = compile_clause_nd_dist(cl, {"S": g, "T": g})
        shared = flavor_nodes(ir, "union", procs=2)
        dist, gdist = (flavor_nodes(ir, f) for f in ("dist", "gdist"))
        stats = ir.kernels.region_stats
        assert stats["dist"]["vector"] == stats["union"]["vector"] == 0
        assert stats["gdist"]["vector"] == 0
        assert stats["bytes"] < 1 << 20  # O(edge), not O(edge^2)
        # two workers: each runs one grid row of nodes as one span block
        assert [[p for p, _, _ in nk.parts] for nk in shared] == \
            [[0, 1], [2, 3]]
        assert all(nk.blocks[0].span for nk in shared)
        # real processes overlap the interior with their messages; in
        # process each node commits its Modify_p as one block
        assert all(nk.interior is not None and len(nk.blocks) <= 4
                   for nk in gdist)
        assert all(nk.interior is None and len(nk.blocks) == 1
                   and nk.blocks[0].pos.size == nk.n == nk.inner + sum(
                       b.pos.size for b in g_nk.blocks)
                   for nk, g_nk in zip(dist, gdist))


    def test_e19_at_1024_reaches_the_workers_as_regions(self, monkeypatch):
        """Lowering, the schedule check, the sanitizer and the install
        payloads of E19 1024^2 never build a lane vector: what rides the
        pipe to each worker is O(segments)."""
        import pickle

        for owner, name in ((Region, "index_vectors"),
                            (np, "ravel_multi_index")):
            monkeypatch.setattr(owner, name, _boom)
        n = 1024
        g = GridDecomposition([Block(n, 2), Block(n, 2)])

        def s(di, dj):
            return Ref("S", SeparableMap([AffineF(1, di), AffineF(1, dj)]))

        cl = Clause(IndexSet(Bounds((1, 1), (n - 2, n - 2))),
                    Ref("T", SeparableMap([IdentityF(), IdentityF()])),
                    (s(-1, 0) + s(1, 0) + s(0, -1) + s(0, 1)) * 0.25)
        ir = compile_clause_nd_dist(cl, {"S": g, "T": g})
        progs = [lower_shared(ir, procs=2), lower_dist(ir)]
        for prog_ in progs:
            assert check_schedule([prog_])[1].ok
            for rank in range(2):
                payload = pickle.dumps(prog_.payload_for(rank, 2))
                assert len(payload) < 16 << 10
        assert check_schedule(progs, flags=[False, True])[1].ok
        assert not sanitize_kernels(ir)
        assert ir.kernels.region_stats["gdist"]["vector"] == 0


# ---------------------------------------------------------------------------
# what describe() and the schedule check read off regions
# ---------------------------------------------------------------------------

class TestRegionReporting:
    def _plan(self, wdec, rdec, n=64):
        clear_plan_cache()
        cl = Clause(IndexSet.range1d(1, n - 2),
                    Ref("A", SeparableMap([IdentityF()])),
                    Ref("B", SeparableMap([AffineF(1, 1)])) * 2.0)
        return compile_plan(cl, {"A": wdec, "B": rdec})

    def test_describe_counts_slice_and_vector_regions(self):
        ir = self._plan(Block(64, 4), Block(64, 4))
        k = ir.kernels
        assert "distributed: built on first use" in k.describe()
        flavor_nodes(ir, "dist")
        stats = k.region_stats
        assert stats["dist"]["vector"] == 0 and stats["dist"]["slice"] > 0
        assert f"{stats['dist']['slice']} slice / 0 vector" in k.describe()
        assert f"{stats['bytes']} bytes" in k.describe()

    def test_vector_keys_are_counted_in_bytes(self):
        sliced = self._plan(Block(64, 4), Block(64, 4))
        multi = self._plan(BlockScatter(64, 4, 2), Block(64, 4))
        flavor_nodes(sliced, "dist")
        vector_bytes = sum(
            r.nbytes for nk in flavor_nodes(multi, "dist") for b in nk.blocks
            for r in (b.pos, b.loop, b.write))
        assert multi.kernels.region_stats["dist"]["vector"] > 0
        assert vector_bytes > 0
        assert _approx_nbytes(multi.kernels) >= \
            _approx_nbytes(sliced.kernels) + vector_bytes

    def test_cache_bytes_cover_what_an_mp_run_lowers(self):
        """The ``gdist`` flavor an mp run builds lands on the cached
        entry after it was first sized: the byte budget must see it,
        and ``describe()`` must report it."""
        from repro.codegen.dist_tmpl import run_distributed
        from repro.pipeline import kernel_cache_info
        from repro.runtime import shutdown_runtime

        ir = self._plan(BlockScatter(64, 4, 2), Block(64, 4))
        k, before = ir.kernels, kernel_cache_info()["bytes"]
        assert "gdist" not in k.built()
        assert "real-process distributed: built on first use" in k.describe()
        env = {"A": np.zeros(64), "B": np.arange(64.0)}
        try:
            m = run_distributed(ir, env, backend="mp", processes=2)
        finally:
            shutdown_runtime()
        assert m.runtime_stats and "gdist" in k.built()
        prog_ = lower_dist(ir)
        assert k.mp_programs == {"gdist": prog_} and prog_.sched_cert.ok
        grown = sum(
            r.nbytes for r in _leaves(k.built()["gdist"])
            if isinstance(r, Region))
        assert k.region_stats["gdist"]["vector"] > 0 and grown > 0
        assert kernel_cache_info()["bytes"] >= before + grown
        assert k.region_stats["bytes"] >= before + grown
        assert "real-process distributed: 4 node kernels" in k.describe()

    def test_lowered_key_vectors_share_the_bounds_check(self):
        """KRN001 checks the regions the real processes run — the nodes
        of a lowered program are the plan's own node kernels — through
        the one check: first/last element of a slice, min/max of a
        vector."""
        ir = self._plan(Block(64, 4), Block(64, 4))
        dist, shared = lower_dist(ir), lower_shared(ir, procs=2)
        assert dist.nodes is flavor_nodes(ir, "gdist")
        assert shared.nodes is flavor_nodes(ir, "union", procs=2)
        assert not sanitize_kernels(ir)
        dist.nodes[1].interior.write = Region(
            [np.array([99, 17])], (0,), (2,))
        shared.nodes[0].reads[0].mem = Region([slice(-3, 6)], (0,), (16,))
        found = [d.message for d in sanitize_kernels(ir)
                 if d.code == "KRN001"]
        assert len(found) == 2
        assert any("gdist kernel of node 1" in m and "99" in m for m in found)
        assert any("union kernel of node 0" in m and "-3" in m
                   for m in found)

    def test_schedule_sizes_come_from_region_size(self):
        """SCHED001 matches lane counts by ``region.size`` on the node
        kernels themselves, whichever address map they carry."""
        ir = self._plan(Block(64, 4), Block(64, 4))
        prog_ = lower_dist(ir)
        _, cert = check_schedule([prog_])
        assert cert.ok and cert.messages > 0 and prog_.sched_cert is cert
        local = dataclasses.replace(prog_, nodes=flavor_nodes(ir, "dist"))
        assert check_schedule([local])[1] == cert  # same sizes, same peers
        short = next(s for nd in prog_.nodes for s in nd.sends if s.peers)
        q, region = short.peers[0]
        short.peers = ((q, Region([prog(0, 1, region.size + 1)], (0,),
                                  (region.size + 1,))),) + short.peers[1:]
        diags, cert = check_schedule([prog_])
        assert not cert.ok and {d.code for d in diags} >= {"SCHED001"}
