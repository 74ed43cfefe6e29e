"""One machine, many clause executions: node memory framed with ghost
cells must stay what every executor expects it to be.

The fused distributed executor serves a shifted-block read as a view of
the node's own buffer (``LocalMemory.frame``) and lands each halo strip
in the ghost cells beside the tile.  Framing happens lazily, on the
first execution — so everything here runs a clause *again* on the same
pre-placed machine, under every in-process tier and across tiers
(``check_all_tiers(steps=...)``), where a fresh-machine differential
sees nothing."""

import types

import numpy as np
import pytest

from repro.analysis import sanitize_kernels
from repro.codegen.dist_tmpl import run_distributed
from repro.codegen.nddist import compile_clause_nd_dist
from repro.codegen.plan import compile_clause
from repro.core import (
    AffineF,
    Bounds,
    Clause,
    Const,
    IdentityF,
    IndexSet,
    LoopIndex,
    MonotoneF,
    Ref,
    SeparableMap,
    copy_env,
    evaluate_clause,
)
from repro.decomp import Block, BlockScatter, GridDecomposition, Scatter
from repro.machine import DistributedMachine, fused
from repro.pipeline import clear_plan_cache, compile_program
from repro.pipeline.kernels import flavor_nodes
from repro.pipeline.region import Region

from .conftest import IN_PROCESS_TIERS, check_all_tiers
from .test_regions import assert_node_matches_member_vecs


def ref1(name, a, c):
    return Ref(name, SeparableMap([AffineF(a, c) if (a, c) != (1, 0)
                                   else IdentityF()]))


def e19(n, src, dst):
    def s(di, dj):
        return Ref(src, SeparableMap([AffineF(1, di), AffineF(1, dj)]))

    return Clause(IndexSet(Bounds((1, 1), (n - 2, n - 2))),
                  Ref(dst, SeparableMap([IdentityF(), IdentityF()])),
                  (s(-1, 0) + s(1, 0) + s(0, -1) + s(0, 1)) * 0.25)


def e13(n, src, dst):
    return Clause(IndexSet.range1d(1, n - 2), ref1(dst, 1, 0),
                  ref1(src, 1, -1) + ref1(src, 1, 1))


def stencil(n, r, src, dst, guard=None):
    """``dst[i] := Σ_{c=-r..r} src[i+c]`` — what a declared halo of
    width *r* used to be needed for."""
    terms = [ref1(src, 1, c) for c in range(-r, r + 1)]
    return Clause(IndexSet.range1d(r, n - 1 - r), ref1(dst, 1, 0),
                  sum(terms[1:], terms[0]), guard=guard)


def case(name):
    """``(clauses, decomps, every read of every node a view?)``"""
    if name == "e19-2x2":
        g = GridDecomposition([Block(12, 2), Block(12, 2)])
        return ([e19(12, "S", "T"), e19(12, "T", "S")],
                {"S": g, "T": g}, True)
    if name == "e13-block-block":
        return ([e13(24, "B", "A"), e13(24, "A", "B")],
                {"A": Block(24, 4), "B": Block(24, 4)}, True)
    if name == "radius3-pingpong":
        return ([stencil(64, 3, "U", "V"), stencil(64, 3, "V", "U")],
                {"U": Block(64, 4), "V": Block(64, 4)}, True)
    if name == "guarded-stencil":
        return ([stencil(64, 1, "U", "V", guard=ref1("U", 1, 0) > 0.5)],
                {"U": Block(64, 4), "V": Block(64, 4)}, True)
    if name == "masked-node":  # node 0 keeps none of its lanes
        return ([stencil(64, 1, "U", "V", guard=LoopIndex(0) > Const(20))],
                {"U": Block(64, 4), "V": Block(64, 4)}, True)
    if name == "half-write":  # A[i div 2]: two lanes store each address
        half = MonotoneF(lambda i: i // 2, 1, "i div 2")
        return ([Clause(IndexSet.range1d(1, 46),
                        Ref("A", SeparableMap([half])),
                        ref1("B", 1, -1) + ref1("B", 1, 1))],
                {"A": Block(24, 4), "B": Block(48, 4)}, True)
    if name == "pmax-over-domain":  # nodes 0, 5, 6 and 7 have no lanes
        return ([e13(6, "B", "A")], {"A": Block(6, 8), "B": Block(6, 8)},
                None)
    if name == "fused-pair":  # one fused group: no barrier between them
        return ([stencil(24, 1, "U", "V"),
                 Clause(IndexSet.range1d(1, 22), ref1("W", 1, 0),
                        ref1("V", 1, 0) * 2.0)],
                {x: Block(24, 4) for x in "UVW"}, True)
    if name == "shift-block-1":  # the widest margin a block can have
        return ([Clause(IndexSet.range1d(0, 24 - 1 - 5), ref1("A", 1, 0),
                        ref1("B", 1, 5) * 0.5)],
                {"A": Block(24, 4), "B": Block(24, 4)}, True)
    if name == "reversed":  # B[n-1-i]: a whole block from the far side
        return ([Clause(IndexSet.range1d(0, 18 - 1), ref1("A", 1, 0),
                        ref1("B", -1, 18 - 1) * 0.5)],
                {"A": Block(18, 3), "B": Block(18, 3)}, False)
    if name == "reversed-shift":  # B[n+1-i]: node 1's image runs backwards
        return ([Clause(IndexSet.range1d(2, 18 - 1), ref1("A", 1, 0),
                        ref1("B", -1, 18 + 1) * 0.5)],
                {"A": Block(18, 3), "B": Block(18, 3)}, None)
    assert name == "bs1d"  # stride-2 image of a Scatter: no ghost form
    return ([Clause(IndexSet.range1d(0, 32 - 1), ref1("A", 1, 0),
                    ref1("B", 2, 1) + 1.0)],
            {"A": BlockScatter(32, 4, 2), "B": Scatter(64, 4)}, False)


CASES = ("e19-2x2", "e13-block-block", "radius3-pingpong", "guarded-stencil",
         "masked-node", "half-write", "pmax-over-domain", "fused-pair",
         "shift-block-1", "reversed", "reversed-shift", "bs1d")


def env_for(decomps, seed=5):
    rng = np.random.default_rng(seed)
    return {name: rng.random(getattr(dec, "shape", None) or dec.n)
            for name, dec in decomps.items()}


def compiled(clause, decomps):
    return (compile_clause if clause.domain.dim == 1
            else compile_clause_nd_dist)(clause, decomps)


def fetched(nk):
    return [r for r in nk.reads if r.sources]


def framed(mem, name):
    """Does the frame registry hold a ghost frame around *name*'s core?"""
    held = mem._frames.get(name)
    return held is not None and held[0] is mem[name]


@pytest.mark.parametrize("name", CASES)
def test_every_tier_reruns_on_one_machine(name):
    """8 executions per in-process tier plus the mixed-tier sequence, all on pre-placed machines — and the lane plans they ran
    against the element oracle."""
    clear_plan_cache()
    clauses, decomps, views = case(name)
    plan, _ = check_all_tiers(clauses, decomps, env_for(decomps),
                              tiers=IN_PROCESS_TIERS, steps=8)
    dist = flavor_nodes(plan, "dist")
    for p, nk in enumerate(dist):
        assert_node_matches_member_vecs(plan, nk, p, True)
        if views is not None:
            assert all((r.lanes is None) == views for r in fetched(nk))
            assert bool(nk.margins) == (views and bool(fetched(nk)))
    assert any(fetched(nk) for nk in dist)
    if name == "radius3-pingpong":  # the margin nobody declared
        assert [nk.margins["U"] for nk in dist] == \
            [((0, 3),), ((3, 3),), ((3, 3),), ((3, 0),)]
    if name == "shift-block-1":
        assert dist[0].margins == {"B": ((0, 5),)}
    if name == "reversed-shift":
        assert [nk.margins for nk in dist] == [{}, {"B": ((0, 2),)}, {}]
        assert dist[1].reads[0].mem.keys == (slice(7, 1, -1),)
    if name == "fused-pair":
        assert compile_program(clauses, decomps).groups == [[0, 1]]


def test_frame_keeps_the_core_and_follows_a_replacement():
    m = DistributedMachine(2)
    m.place("B", np.arange(12.0), Block(12, 2))
    mem = m.memories[1]
    core = mem["B"]
    assert mem.frame("B", ((0, 0),)).shape == (6,) and mem["B"] is core
    wide = mem.frame("B", ((2, 1),))
    assert wide.shape == (9,) and np.array_equal(wide[2:8], core)
    assert np.shares_memory(mem["B"], wide) and mem["B"].shape == (6,)
    # a request the buffer covers is a sub-view of it; a wider one grows
    assert np.shares_memory(mem.frame("B", ((1, 0),)), wide)
    assert mem.frame("B", ((1, 0),)).shape == (7,)
    grown = mem.frame("B", ((0, 3),))
    assert grown.shape == (9,) and not np.shares_memory(grown, wide)
    assert np.array_equal(m.collect("B"), np.arange(12.0))
    m.place("B", np.ones(12), Block(12, 2))  # a new core: the frame goes
    assert not framed(mem, "B")
    assert mem.frame("B", ((1, 1),)).shape == (8,)
    assert np.array_equal(m.collect("B"), np.ones(12))


# ---------------------------------------------------------------------------
# the copy cannot come back unseen
# ---------------------------------------------------------------------------

class _CountingNumpy(types.ModuleType):
    """``numpy`` as ``machine/fused.py`` sees it while armed: its
    ``np.empty`` (the row buffers, and nothing else in the process)
    counts the elements it allocates."""

    def __init__(self, seen):
        super().__init__("numpy")
        self.seen = seen

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, shape, *a, **kw):
        self.seen["empty"] += int(np.prod(shape))
        return np.empty(shape, *a, **kw)


@pytest.fixture
def copies(monkeypatch):
    """Elements ``machine/fused.py`` allocates through ``np.empty`` (the
    row buffers) and elements ``Region.put`` writes, while armed; and
    every ``(memory, row)`` pair :func:`fused._lane_row` served."""
    seen = {"empty": 0, "put": 0, "rows": []}
    put, lane_row = Region.put, fused._lane_row

    def counting_put(self, arr, values):
        seen["put"] += self.size
        put(self, arr, values)

    def recording_lane_row(r, arr, shape, prestate):
        row = lane_row(r, arr, shape, prestate)
        seen["rows"].append((arr, row))
        return row

    assert fused.np is np
    monkeypatch.setattr(fused, "np", _CountingNumpy(seen))
    monkeypatch.setattr(Region, "put", counting_put)
    monkeypatch.setattr(fused, "_lane_row", recording_lane_row)
    return seen


@pytest.mark.parametrize("name", ["e19-2x2", "e13-block-block", "bs1d"])
def test_fused_gathers_copy_nothing_where_a_frame_serves(name, copies):
    clear_plan_cache()
    clauses, decomps, views = case(name)
    env = env_for(decomps)
    m = DistributedMachine(next(iter(decomps.values())).pmax)
    for k, dec in decomps.items():
        m.place(k, env[k], dec)
    plans = [compiled(c, decomps) for c in clauses]
    for step in range(4):
        before = {k: copies[k] for k in ("empty", "put")}
        received = m.stats.total_elements_moved()
        del copies["rows"][:]
        i = step % len(clauses)
        evaluate_clause(clauses[i], env)
        run_distributed(plans[i], copy_env(env), machine=m, backend="fused")
        assert np.array_equal(m.collect(clauses[i].lhs.name),
                              env[clauses[i].lhs.name])
        received = m.stats.total_elements_moved() - received
        gathered = copies["empty"] - before["empty"]
        drained = copies["put"] - before["put"]
        assert received > 0
        if views:
            # no row buffer; the drain writes the strips and only them
            assert gathered == 0 and drained == received
            assert all(np.shares_memory(arr, row)
                       for arr, row in copies["rows"])
            assert all(framed(mem, r.name)
                       for mem, nk in zip(m.memories,
                                          flavor_nodes(plans[i], "dist"))
                       for r in fetched(nk))
        else:  # the control: a strided image still assembles a buffer
            assert gathered > 0 and drained > received


# ---------------------------------------------------------------------------
# the verifier keeps its verdict, the report names the margins
# ---------------------------------------------------------------------------

def test_sanitizer_checks_ghost_fills_against_the_framed_shape():
    clear_plan_cache()
    clauses, decomps, _ = case("e19-2x2")
    plan = compiled(clauses[0], decomps)
    k, nk = plan.kernels, flavor_nodes(plan, "dist")[0]
    assert "ghost S[1:1, 1:1]" in k.describe()
    assert k.region_stats["dist"]["vector"] == 0
    assert not sanitize_kernels(plan)
    assert nk.margins == {"S": ((0, 1), (0, 1))}
    nk.margins["S"] = ((0, 0), (0, 1))  # one ghost row short
    found = [d.message for d in sanitize_kernels(plan) if d.code == "KRN001"]
    assert found and all("dist kernel of node 0" in msg for msg in found)
    assert any("ghost fill of read 'S'" in msg and "from node 2" in msg
               and "index 6 outside [0, 6) at axis 0" in msg
               for msg in found)


def test_non_ghost_control_allocates_no_margin():
    """``A`` Scatter, ``B`` Block, ``B[i]``: each node's image strides by
    pmax across every block — a row buffer, not a 15-cell margin on a
    6-cell block."""
    clear_plan_cache()
    cl = Clause(IndexSet.range1d(0, 23), ref1("A", 1, 0), ref1("B", 1, 0))
    decomps = {"A": Scatter(24, 4), "B": Block(24, 4)}
    plan, _ = check_all_tiers(cl, decomps, env_for(decomps),
                              tiers=IN_PROCESS_TIERS, steps=2)
    for p, nk in enumerate(flavor_nodes(plan, "dist")):
        assert_node_matches_member_vecs(plan, nk, p, True)
        assert not nk.margins and fetched(nk)
        assert all(r.lanes is not None for r in fetched(nk))
    assert "ghost" not in plan.kernels.describe()
