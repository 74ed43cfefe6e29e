"""Array-native placement and collection against the per-element oracle.

``scatter_global*``/``gather_global*`` build node memories from the
decompositions' closed forms (``owned_indices``/``local_indices``/
``local_size``).  The loops they replaced — one ``local(i)`` call per
element — live on here as the reference every layout is compared with.
"""

import gc
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.codegen.nddist import (
    collect_nd,
    compile_clause_nd_dist,
    run_distributed_nd,
)
from repro.core import (
    AffineF,
    BinOp,
    Bounds,
    Clause,
    IdentityF,
    IndexSet,
    Ref,
    SeparableMap,
)
from repro.decomp import (
    Block,
    BlockScatter,
    Collapsed,
    Decomposition,
    GridDecomposition,
    Replicated,
    Scatter,
    SingleOwner,
)
from repro.machine import (
    DistributedMachine,
    LocalMemory,
    gather_global,
    scatter_global,
)
from repro.machine.ndmemory import gather_global_nd, scatter_global_nd

SETTINGS = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# the oracle: the per-element loops placement used to be
# ---------------------------------------------------------------------------

def oracle_scatter(arr, d):
    """Node memories of *arr* under the 1-D decomposition *d*."""
    if isinstance(d, Replicated):
        return [np.array(arr, copy=True) for _ in range(d.pmax)]
    out = []
    for p in range(d.pmax):
        local = np.zeros(Decomposition.local_size(d, p), dtype=arr.dtype)
        for i in d.owned(p):
            local[d.local(i)] = arr[i]
        out.append(local)
    return out


def oracle_scatter_nd(arr, grid):
    out = []
    for p in range(grid.pmax):
        shape = tuple(Decomposition.local_size(d, c)
                      for d, c in zip(grid.dims, grid.grid_coord(p)))
        local = np.zeros(shape, dtype=arr.dtype)
        for idx in grid.owned(p):
            local[grid.local(idx)] = arr[idx]
        out.append(local)
    return out


def as_list(index, n):
    """A ``slice`` or index array as the list of indices it selects."""
    return np.arange(n)[index].tolist()


def global_shape(dec):
    return dec.shape if isinstance(dec, GridDecomposition) else (dec.n,)


def memories(pmax):
    return [LocalMemory(p) for p in range(pmax)]


def assert_same_memory(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.flags.c_contiguous and got.flags.owndata
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# every 1-D decomposition over n in 0..70, pmax in 1..8, b in 1..9
# ---------------------------------------------------------------------------

class Permuted(Decomposition):
    """An opaque user-defined decomposition: only ``proc``/``local``
    given (a scatter of the reversed index, slot 0 left unowned), so
    ``local`` falls as the global index rises and everything else runs
    through the base-class fallbacks."""

    kind = "permuted"

    def proc(self, i):
        return (self.n - 1 - i) % self.pmax

    def local(self, i):
        return (self.n - 1 - i) // self.pmax + 1


def decompositions_1d(n, pmax):
    yield Block(n, pmax)
    yield Block(n, pmax, b=-(-n // pmax) + 2)
    yield Scatter(n, pmax)
    yield SingleOwner(n, pmax, owner=pmax // 2)
    yield Replicated(n, pmax)
    yield Permuted(n, pmax)
    for b in range(1, 10):
        yield BlockScatter(n, pmax, b)
    if pmax == 1:
        yield Collapsed(n)


ALL_1D = [d for n in range(71) for pmax in range(1, 9)
          for d in decompositions_1d(n, pmax)]


class TestClosedForms:
    def test_owned_indices_equal_owned(self):
        for d in ALL_1D:
            for p in range(d.pmax):
                assert as_list(d.owned_indices(p), d.n) == d.owned(p), (d, p)

    def test_local_indices_equal_local_elementwise(self):
        for d in ALL_1D:
            for p in range(d.pmax):
                own = d.owned(p)
                want = [d.local(i) for i in own]
                size = max(want, default=-1) + 1
                assert as_list(d.local_indices(p), size) == want, (d, p)
                got = d.local_array(np.asarray(own, dtype=np.int64))
                assert got.tolist() == want, (d, p)

    def test_local_size_equals_base_definition(self):
        for d in ALL_1D:
            for p in range(d.pmax):
                assert d.local_size(p) == Decomposition.local_size(d, p), (d, p)

    def test_single_triplets_are_slices(self):
        for d in (Block(17, 4), Block(3, 8), Scatter(17, 4), Collapsed(9),
                  SingleOwner(9, 3, 1), Replicated(9, 3),
                  BlockScatter(10, 4, 3)):
            for p in range(d.pmax):
                assert isinstance(d.owned_indices(p), slice), (d, p)
                assert isinstance(d.local_indices(p), slice), (d, p)
        multi = BlockScatter(40, 4, 3).owned_indices(1)
        assert multi.dtype == np.int64


class TestPlacement1D:
    def test_node_memories_match_oracle_and_roundtrip(self):
        rng = np.random.default_rng(7)
        for d in ALL_1D:
            arr = rng.random(d.n)
            mems = memories(d.pmax)
            scatter_global("A", arr, d, mems)
            for mem, want in zip(mems, oracle_scatter(arr, d)):
                assert_same_memory(mem["A"], want)
            assert np.array_equal(gather_global("A", d, mems), arr), d

    def test_dtype_follows_the_global_array(self):
        d = BlockScatter(23, 3, 4)
        arr = np.arange(23, dtype=np.int32)
        mems = memories(3)
        scatter_global("A", arr, d, mems)
        for mem, want in zip(mems, oracle_scatter(arr, d)):
            assert_same_memory(mem["A"], want)
        out = gather_global("A", d, mems, dtype=np.int32)
        assert out.dtype == np.int32 and np.array_equal(out, arr)

    def test_gather_reads_owned_slots_only(self):
        # ghost cells beside the core never reach the result
        d = Block(16, 4)
        mems = memories(4)
        scatter_global("A", np.arange(16.0), d, mems)
        frame = mems[1].frame("A", ((2, 2),))
        frame[:2] = frame[-2:] = -1.0
        assert np.array_equal(gather_global("A", d, mems), np.arange(16.0))


# ---------------------------------------------------------------------------
# grids: products of the above
# ---------------------------------------------------------------------------

def axis(max_n):
    def build(t):
        kind, n, pmax, b = t
        if kind == "block":
            return Block(n, pmax)
        if kind == "scatter":
            return Scatter(n, pmax)
        if kind == "bs":
            return BlockScatter(n, pmax, b)
        if kind == "permuted":
            return Permuted(n, pmax)
        return Collapsed(n)

    return st.tuples(
        st.sampled_from(["block", "scatter", "bs", "permuted", "collapsed"]),
        st.integers(0, max_n), st.integers(1, 3), st.integers(1, 9),
    ).map(build)


grids = st.one_of(
    st.lists(axis(70), min_size=2, max_size=2),
    st.lists(axis(14), min_size=3, max_size=3),
).map(GridDecomposition)


def check_grid(grid, seed=0):
    arr = np.random.default_rng(seed).random(grid.shape)
    mems = memories(grid.pmax)
    scatter_global_nd("A", arr, grid, mems)
    for p, (mem, want) in enumerate(zip(mems, oracle_scatter_nd(arr, grid))):
        assert_same_memory(mem["A"], want)
        assert mem["A"].shape == grid.local_shape(p)
        own = [as_list(ix, n)
               for ix, n in zip(grid.owned_indices(p), grid.shape)]
        assert list(itertools.product(*own)) == grid.owned(p)
    assert np.array_equal(gather_global_nd("A", grid, mems), arr)


class TestPlacementGrid:
    @given(grids, st.integers(0, 2**16))
    @SETTINGS
    def test_node_memories_match_oracle_and_roundtrip(self, grid, seed):
        check_grid(grid, seed)

    @pytest.mark.parametrize("dims", [
        [Scatter(11, 2), BlockScatter(70, 3, 3)],       # array x array
        [Block(9, 2), BlockScatter(31, 2, 4)],          # slice x array
        [BlockScatter(31, 2, 4), Collapsed(5), Scatter(9, 2)],
        [Block(2, 4), Block(7, 2)],                     # empty processors
        [Block(0, 2), Scatter(5, 2)],                   # an empty axis
        [Block(10, 2), Block(10, 2)],                   # partial last block
    ])
    def test_mixed_axes(self, dims):
        check_grid(GridDecomposition(dims))


# ---------------------------------------------------------------------------
# node memories are copies
# ---------------------------------------------------------------------------

ALIASING = [
    Block(12, 3), Scatter(12, 3), BlockScatter(12, 2, 2), Replicated(12, 3),
    SingleOwner(12, 3, 1), Block(12, 1),
    GridDecomposition([Collapsed(12)]),
    GridDecomposition([Block(4, 2), Collapsed(3)]),
    GridDecomposition([Collapsed(4), Collapsed(3)]),
    GridDecomposition([Scatter(4, 2), BlockScatter(3, 1, 1)]),
]


class TestNoAliasing:
    @pytest.mark.parametrize("dec", ALIASING, ids=repr)
    def test_caller_and_node_memories_are_independent(self, dec):
        shape = global_shape(dec)
        arr = np.arange(float(np.prod(shape))).reshape(shape) + 1.0
        before = arr.copy()
        m = DistributedMachine(dec.pmax)
        m.place("A", arr, dec)
        for mem in m.memories:
            assert not np.shares_memory(mem["A"], arr)
            mem["A"][...] = -5.0
        assert np.array_equal(arr, before)

        m.place("A", arr, dec)
        arr[...] = -7.0
        out = m.collect("A")
        assert np.array_equal(out, before)
        out[...] = -9.0
        assert np.array_equal(m.collect("A"), before)


# ---------------------------------------------------------------------------
# complexity guard: no per-element call can come back unnoticed
# ---------------------------------------------------------------------------

class TestNoPerElementCalls:
    @pytest.fixture
    def per_element_calls_raise(self, monkeypatch):
        def boom(self, *args):
            raise AssertionError(
                f"per-element call on {type(self).__name__} during "
                "placement/collection")

        for cls in (Decomposition, BlockScatter, Block, Scatter, Collapsed,
                    SingleOwner, Replicated, GridDecomposition):
            for name in ("proc", "local", "owned"):
                monkeypatch.setattr(cls, name, boom)

    @pytest.mark.parametrize("dec", [
        Block(1 << 18, 4),
        BlockScatter(1 << 16, 4, 8),
        Scatter(1 << 16, 4),
        Block(1 << 16, 4),
        Replicated(1 << 12, 4),
        SingleOwner(1 << 12, 4, 2),
        GridDecomposition([Block(256, 2), Block(256, 2)]),
        GridDecomposition([Scatter(64, 2), BlockScatter(64, 2, 8)]),
    ], ids=repr)
    def test_place_and_collect(self, dec, per_element_calls_raise):
        shape = global_shape(dec)
        arr = np.random.default_rng(3).random(shape)
        m = DistributedMachine(dec.pmax)
        m.place("A", arr, dec)
        assert np.array_equal(m.collect("A"), arr)

    def test_the_guard_bites(self, per_element_calls_raise):
        with pytest.raises(AssertionError, match="per-element"):
            Permuted(8, 2).owned_indices(0)


# ---------------------------------------------------------------------------
# input hardening at the placement boundary
# ---------------------------------------------------------------------------

class TestBoundary:
    def test_2d_array_under_1d_decomposition_rejected(self):
        d = Block(10, 2)
        with pytest.raises(ValueError, match=r"shape \(10, 3\)"):
            scatter_global("A", np.zeros((10, 3)), d, memories(2))
        m = DistributedMachine(2)
        with pytest.raises(ValueError, match="'A'"):
            m.place("A", np.zeros((10, 3)), d)
        assert "A" not in m.decomps

    def test_memory_count_must_match_pmax(self):
        grid = GridDecomposition([Block(4, 2), Block(4, 2)])
        with pytest.raises(ValueError, match="pmax=4"):
            scatter_global_nd("A", np.zeros((4, 4)), grid, memories(3))
        with pytest.raises(ValueError, match="pmax=4"):
            scatter_global("A", np.zeros(8), Block(8, 4), memories(2))

    def test_collect_of_unplaced_name(self):
        m = DistributedMachine(2)
        m.place("B", np.zeros(4), Block(4, 2))
        m.place("C", np.zeros(4), Scatter(4, 2))
        for collect in (m.collect, lambda name: collect_nd(m, name)):
            with pytest.raises(KeyError) as exc:
                collect("A")
            msg = exc.value.args[0]
            assert "'A'" in msg and "['B', 'C']" in msg and "\n" not in msg

    def test_machine_places_and_collects_grids(self):
        grid = GridDecomposition([Scatter(6, 2), BlockScatter(9, 2, 2)])
        arr = np.arange(54.0).reshape(6, 9)
        m = DistributedMachine(4)
        m.place("A", arr, grid)
        assert m.decomps["A"] is grid
        assert np.array_equal(m.collect("A"), arr)
        assert np.array_equal(collect_nd(m, "A"), arr)
        with pytest.raises(ValueError, match="pmax"):
            DistributedMachine(3).place("A", arr, grid)


# ---------------------------------------------------------------------------
# a run leaves no cyclic garbage behind
# ---------------------------------------------------------------------------

def test_run_and_collect_leave_no_cycles():
    n = 64
    ident = SeparableMap([IdentityF(), IdentityF()])
    clause = Clause(
        IndexSet(Bounds((1, 1), (n - 2, n - 2))),
        Ref("T", ident),
        BinOp("+", Ref("S", SeparableMap([AffineF(1, -1), IdentityF()])),
              Ref("S", SeparableMap([IdentityF(), AffineF(1, 1)]))),
    )
    grid = GridDecomposition([Block(n, 2), Block(n, 2)])
    plan = compile_clause_nd_dist(clause, {"S": grid, "T": grid})
    rng = np.random.default_rng(0)
    env = {"S": rng.random((n, n)), "T": rng.random((n, n))}

    def round_trip():
        machine = run_distributed_nd(plan, env, backend="fused")
        collect_nd(machine, "T")
        grid.owned(0)
        del machine

    round_trip()  # warm caches: first-use allocations are not the subject
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        round_trip()
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
