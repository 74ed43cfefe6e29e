"""Tests for generated redistribution programs (dynamic decompositions)."""

import numpy as np
import pytest

from repro.codegen import run_redistribution
from repro.decomp import Block, BlockScatter, Replicated, Scatter, SingleOwner
from repro.machine import DistributedMachine


def machine_with(n, pmax, dec, seed=11):
    rng = np.random.default_rng(seed)
    arr = rng.random(n)
    m = DistributedMachine(pmax)
    m.place("A", arr, dec)
    return m, arr


class TestRedistributionExecution:
    @pytest.mark.parametrize("mk_src,mk_dst", [
        (lambda: Block(24, 4), lambda: Scatter(24, 4)),
        (lambda: Scatter(24, 4), lambda: Block(24, 4)),
        (lambda: Block(24, 4), lambda: BlockScatter(24, 4, 2)),
        (lambda: BlockScatter(24, 4, 3), lambda: BlockScatter(24, 4, 2)),
        (lambda: Block(24, 4), lambda: SingleOwner(24, 4, 0)),
        (lambda: SingleOwner(24, 4, 2), lambda: Scatter(24, 4)),
    ])
    def test_values_preserved(self, mk_src, mk_dst):
        m, arr = machine_with(24, 4, mk_src())
        run_redistribution(m, "A", mk_dst())
        assert np.allclose(m.collect("A"), arr)

    def test_identity_redistribution(self):
        m, arr = machine_with(20, 4, Block(20, 4))
        plan = run_redistribution(m, "A", Block(20, 4))
        assert plan.moved_elements() == 0
        assert m.stats.total_messages() == 0
        assert np.allclose(m.collect("A"), arr)

    def test_messages_are_coalesced(self):
        # one message per (src, dst) pair, NOT one per element
        m, _ = machine_with(32, 4, Block(32, 4))
        plan = run_redistribution(m, "A", Scatter(32, 4))
        assert m.stats.total_messages() == plan.message_count()
        assert plan.moved_elements() > plan.message_count()

    def test_element_volume_matches_plan(self):
        m, _ = machine_with(32, 4, Block(32, 4))
        plan = run_redistribution(m, "A", Scatter(32, 4))
        assert m.stats.total_elements_moved() == plan.moved_elements()

    def test_chained_redistributions(self):
        m, arr = machine_with(30, 4, Block(30, 4))
        run_redistribution(m, "A", Scatter(30, 4))
        run_redistribution(m, "A", BlockScatter(30, 4, 2))
        run_redistribution(m, "A", Block(30, 4))
        assert np.allclose(m.collect("A"), arr)

    def test_registry_updated(self):
        m, _ = machine_with(20, 4, Block(20, 4))
        new = Scatter(20, 4)
        run_redistribution(m, "A", new)
        assert m.decomposition("A") is new

    def test_local_buffers_resized(self):
        m, _ = machine_with(20, 4, SingleOwner(20, 4, 0))
        assert m.memories[1]["A"].size == 0
        run_redistribution(m, "A", Block(20, 4))
        assert m.memories[1]["A"].size == 5

    def test_works_alongside_other_arrays(self):
        rng = np.random.default_rng(0)
        m = DistributedMachine(4)
        a, b = rng.random(20), rng.random(20)
        m.place("A", a, Block(20, 4))
        m.place("B", b, Scatter(20, 4))
        run_redistribution(m, "A", Scatter(20, 4))
        assert np.allclose(m.collect("A"), a)
        assert np.allclose(m.collect("B"), b)

    def test_into_replicated_fills_every_copy(self):
        # a replicated destination needs the whole array on every node
        m, arr = machine_with(20, 4, Block(20, 4))
        plan = run_redistribution(m, "A", Replicated(20, 4))
        for p in range(4):
            assert np.array_equal(m.memories[p]["A"], arr)
        assert np.array_equal(m.collect("A"), arr)
        assert m.stats.total_messages() == plan.message_count() == 12

    def test_replicated_to_replicated_sends_nothing(self):
        m, arr = machine_with(20, 4, Replicated(20, 4))
        plan = run_redistribution(m, "A", Replicated(20, 4))
        assert m.stats.total_messages() == plan.message_count() == 0
        for p in range(4):
            assert np.array_equal(m.memories[p]["A"], arr)
        assert np.array_equal(m.collect("A"), arr)

    def test_from_replicated_reads_the_canonical_copy(self):
        m, arr = machine_with(20, 4, Replicated(20, 4))
        plan = run_redistribution(m, "A", Scatter(20, 4))
        assert np.array_equal(m.collect("A"), arr)
        assert m.stats.total_messages() == plan.message_count() == 3
