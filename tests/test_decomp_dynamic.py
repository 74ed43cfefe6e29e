"""Tests for redistribution planning (dynamic decompositions, §1/§5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import run_redistribution
from repro.codegen.autoselect import _redistribution_cost
from repro.decomp import (
    Block,
    BlockScatter,
    GridDecomposition,
    Replicated,
    Scatter,
    SingleOwner,
    plan_redistribution,
)
from repro.machine import DistributedMachine
from repro.machine.costmodel import HYPERCUBE
from repro.pipeline.region import vec

from .conftest import decompositions


def walk_plan(src, dst):
    """The per-element oracle: every global index walked from its
    ``src`` placement to its ``dst`` one.  Returns ``(messages, stay)``:
    per ``(p, q)`` the ``(src_local, dst_local, global)`` triples ``p``
    ships to ``q``, per ``p`` the ``(src_local, dst_local)`` pairs that
    stay in its memory — both in ascending global order."""
    messages, stay = {}, {}
    for i in range(src.n):
        sp, sl = src.place(i)
        dp, dl = dst.place(i)
        if sp == dp:
            stay.setdefault(sp, []).append((sl, dl))
        else:
            messages.setdefault((sp, dp), []).append((sl, dl, i))
    return messages, stay


def key_triples(plan, p, q):
    """``plan.moves[(p, q)]`` as ``(src_local, dst_local, global)``
    triples in payload order."""
    g, sl, dl = plan.moves[p, q]
    return list(zip(vec(sl).tolist(), vec(dl).tolist(), vec(g).tolist()))


def expected_moves(src, dst):
    """``{(p, q): triples or pairs}`` by the walk.  A replicated
    destination needs the whole array on every processor: it is, for
    each ``q``, the walk into ``SingleOwner(n, pmax, q)``
    (``local(i) = i``, as a replicated copy's).  From a replicated
    source that copy is already there: every processor keeps its own."""
    if src.is_replicated and dst.is_replicated:
        return {(p, p): [(i, i) for i in range(src.n)]
                for p in range(src.pmax)}
    targets = [SingleOwner(dst.n, dst.pmax, q) for q in range(dst.pmax)] \
        if dst.is_replicated else [dst]
    out = {}
    for d in targets:
        messages, stay = walk_plan(src, d)
        out.update(messages)
        out.update(((p, p), pairs) for p, pairs in stay.items())
    return out


@st.composite
def redistributions(draw):
    """A ``(src, dst)`` pair over one ``n`` and ``pmax``, either end
    possibly :class:`Replicated`."""
    src = draw(decompositions(max_n=40, max_p=6))
    dst = draw(decompositions(n=src.n, pmax=src.pmax))
    rep = draw(st.sampled_from(["", "src", "dst", "both"]))
    if rep in ("src", "both"):
        src = Replicated(src.n, src.pmax)
    if rep in ("dst", "both"):
        dst = Replicated(dst.n, dst.pmax)
    return src, dst


class TestPlanShape:
    def test_identity_redistribution_moves_nothing(self):
        d = Block(16, 4)
        plan = plan_redistribution(d, Block(16, 4))
        assert plan.moved_elements() == 0
        assert plan.message_count() == 0
        assert plan.stay_elements() == 16

    def test_block_to_scatter_moves_most(self):
        src, dst = Block(16, 4), Scatter(16, 4)
        plan = plan_redistribution(src, dst)
        # each processor keeps exactly the elements where block owner ==
        # scatter owner
        keep = sum(
            1 for i in range(16) if src.proc(i) == dst.proc(i)
        )
        assert plan.stay_elements() == keep
        assert plan.moved_elements() == 16 - keep

    def test_transfers_respect_placements(self):
        src, dst = Block(20, 4), BlockScatter(20, 4, 2)
        plan = plan_redistribution(src, dst)
        assert plan.message_count() > 0
        for (p, q) in plan.volume_by_pair():
            assert p != q
            for sl, dl, gi in key_triples(plan, p, q):
                assert src.place(gi) == (p, sl)
                assert dst.place(gi) == (q, dl)

    def test_stay_respects_placements(self):
        src, dst = Block(20, 4), Scatter(20, 4)
        plan = plan_redistribution(src, dst)
        stays = [p for (p, q) in plan.moves if p == q]
        assert stays
        for p in stays:
            for sl, dl, gi in key_triples(plan, p, p):
                assert src.place(gi) == (p, sl)
                assert dst.place(gi) == (p, dl)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            plan_redistribution(Block(10, 4), Block(12, 4))

    def test_pmax_mismatch_rejected(self):
        with pytest.raises(ValueError):
            plan_redistribution(Block(10, 4), Block(10, 5))


class TestNonOneDEndpoints:
    """A grid decomposition is refused with one ValueError naming it, at
    every entry that can be handed one."""

    grid = GridDecomposition([Block(4, 2), Block(4, 2)])

    @pytest.mark.parametrize("ends", ["src", "dst"])
    def test_plan_names_the_grid(self, ends):
        one = Block(16, 4)
        src, dst = (self.grid, one) if ends == "src" else (one, self.grid)
        with pytest.raises(ValueError, match=r"1-D.*GridDecomposition\(") \
                as info:
            plan_redistribution(src, dst)
        assert "\n" not in str(info.value)

    def test_run_redistribution_of_a_grid_array(self):
        m = DistributedMachine(4)
        m.place("G", np.zeros((4, 4)), self.grid)
        with pytest.raises(ValueError, match="GridDecomposition"):
            run_redistribution(m, "G", Block(16, 4))

    @pytest.mark.parametrize("other", [Block(16, 4), Replicated(16, 4)],
                             ids=["block", "replicated"])
    def test_autoselect_transition_cost(self, other):
        with pytest.raises(ValueError, match="GridDecomposition"):
            _redistribution_cost({"A": self.grid}, {"A": other}, HYPERCUBE)


class TestStatistics:
    def test_volume_by_pair(self):
        plan = plan_redistribution(Block(16, 4), Scatter(16, 4))
        vol = plan.volume_by_pair()
        assert sum(vol.values()) == plan.moved_elements()

    def test_gather_to_single_owner_fan_in(self):
        plan = plan_redistribution(Block(16, 4), SingleOwner(16, 4, 0))
        # processors 1..3 each send exactly one message to 0
        assert plan.message_count() == 3
        assert all(q == 0 for (_p, q) in plan.volume_by_pair())
        assert plan.moved_elements() == 12

    def test_broadcast_from_single_owner_fan_out(self):
        plan = plan_redistribution(SingleOwner(16, 4, 1), Block(16, 4))
        assert plan.max_fan_out() == 3
        assert plan.moved_elements() == 12

    def test_replicated_source_is_its_canonical_copy(self):
        plan = plan_redistribution(Replicated(16, 4), Block(16, 4))
        assert plan.message_count() == 3
        assert all(p == 0 for (p, _q) in plan.volume_by_pair())
        assert (plan.moved_elements(), plan.stay_elements()) == (12, 4)

    def test_replicated_destination_is_whole_everywhere(self):
        plan = plan_redistribution(Block(16, 4), Replicated(16, 4))
        assert plan.message_count() == 12
        assert (plan.moved_elements(), plan.stay_elements()) == (48, 16)

    def test_replicated_to_replicated_moves_nothing(self):
        # every copy already holds the array: each stays where it is
        plan = plan_redistribution(Replicated(16, 4), Replicated(16, 4))
        assert plan.message_count() == plan.moved_elements() == 0
        assert plan.stay_elements() == 64
        assert set(plan.moves) == {(p, p) for p in range(4)}


class TestKeyPlanMatchesWalk:
    @given(redistributions())
    @settings(max_examples=100, deadline=None)
    def test_keys_equal_the_per_element_walk(self, pair):
        src, dst = pair
        plan = plan_redistribution(src, dst)
        want = expected_moves(src, dst)
        both = src.is_replicated and dst.is_replicated
        assert set(plan.moves) == set(want)
        for (p, q), moved in want.items():
            got = key_triples(plan, p, q)
            if p == q:  # the walk's stay pairs carry no global index
                assert [(sl, dl) for sl, dl, _ in got] == moved
                # between replicated layouts each copy keeps its own
                # (index gi at slot gi); else a stay sits where src put it
                held = (lambda gi: (p, gi)) if both else src.place
                assert all(held(gi) == (p, sl) for sl, _, gi in got)
            else:
                assert got == moved

    def test_block_to_scatter_at_2_24_is_closed_form(self):
        # no element is visited: every key is a slice, every count a
        # closed form (each of the P² pairs meets in n / P² elements)
        n, pmax = 1 << 24, 8
        plan = plan_redistribution(Block(n, pmax), Scatter(n, pmax))
        assert all(isinstance(k, slice)
                   for keys in plan.moves.values() for k in keys)
        assert len(plan.moves) == pmax * pmax
        assert set(plan.volume_by_pair().values()) == {n // pmax ** 2}
        assert plan.message_count() == pmax * (pmax - 1)
        assert plan.moved_elements() == n - n // pmax
        assert plan.stay_elements() == n // pmax
        assert plan.max_fan_out() == pmax - 1


class TestConservationProperty:
    @given(redistributions())
    @settings(max_examples=40)
    def test_every_element_accounted_once(self, pair):
        # once per copy: a replicated destination holds pmax of them
        src, dst = pair
        plan = plan_redistribution(src, dst)
        copies = dst.pmax if dst.is_replicated else 1
        assert plan.moved_elements() + plan.stay_elements() == src.n * copies
