"""Tests for the simulated machines (channels, scheduler, memories)."""

import numpy as np
import pytest

from repro.decomp import Block, Replicated, Scatter
from repro.machine import (
    Barrier,
    DeadlockError,
    DistributedMachine,
    LocalMemory,
    MachineStats,
    Network,
    Recv,
    SharedMachine,
    Yield,
    gather_global,
    run_spmd,
    scatter_global,
)


class TestNetwork:
    def test_send_then_recv(self):
        net = Network(2)
        net.send(0, 1, "t", 42)
        msg = net.try_recv(1, 0, "t")
        assert msg.payload == 42

    def test_recv_empty_returns_none(self):
        net = Network(2)
        assert net.try_recv(1, 0, "t") is None

    def test_fifo_per_tag(self):
        net = Network(2)
        net.send(0, 1, "a", 1)
        net.send(0, 1, "b", 2)
        net.send(0, 1, "a", 3)
        assert net.try_recv(1, 0, "b").payload == 2  # tag match skips 'a'
        assert net.try_recv(1, 0, "a").payload == 1
        assert net.try_recv(1, 0, "a").payload == 3

    def test_pending_counts(self):
        net = Network(3)
        net.send(0, 1, "t", 1)
        net.send(2, 1, "t", 2)
        assert net.pending() == 2
        assert net.pending_for(1) == 2
        net.try_recv(1, 0, "t")
        assert net.pending() == 1

    def test_drain_check(self):
        net = Network(2)
        net.send(0, 1, "t", 1)
        with pytest.raises(AssertionError):
            net.drain_check()

    def test_range_validation(self):
        net = Network(2)
        with pytest.raises(IndexError):
            net.send(0, 5, "t", 1)


class TestScheduler:
    def test_simple_pingpong(self):
        net = Network(2)
        log = []

        def node0():
            net.send(0, 1, "ping", "hello")
            reply = yield Recv(1, "pong")
            log.append(("n0", reply))

        def node1():
            msg = yield Recv(0, "ping")
            net.send(1, 0, "pong", msg + "!")
            log.append(("n1", msg))

        run_spmd([node0(), node1()], net)
        assert ("n0", "hello!") in log
        assert ("n1", "hello") in log

    def test_barrier_synchronizes(self):
        net = Network(3)
        order = []

        def node(p):
            order.append(("before", p))
            yield Barrier()
            order.append(("after", p))

        run_spmd([node(p) for p in range(3)], net)
        befores = [k for k, (tag, _) in enumerate(order) if tag == "before"]
        afters = [k for k, (tag, _) in enumerate(order) if tag == "after"]
        assert max(befores) < min(afters)

    def test_multiple_barriers(self):
        net = Network(2)
        trace = []

        def node(p):
            for round_ in range(3):
                trace.append((p, round_))
                yield Barrier()

        run_spmd([node(0), node(1)], net)
        assert len(trace) == 6

    def test_yield_allows_progress(self):
        net = Network(2)
        done = []

        def node0():
            yield Yield()
            done.append(0)

        def node1():
            done.append(1)
            return
            yield  # pragma: no cover

        run_spmd([node0(), node1()], net)
        assert sorted(done) == [0, 1]

    def test_deadlock_detected(self):
        net = Network(2)

        def node0():
            yield Recv(1, "never")

        def node1():
            yield Recv(0, "never")

        with pytest.raises(DeadlockError) as ei:
            run_spmd([node0(), node1()], net)
        assert "blocked nodes" in str(ei.value)

    def test_barrier_releases_among_live_nodes_only(self):
        # A node that has terminated no longer participates in barriers —
        # the remaining nodes synchronize among themselves.
        net = Network(2)
        done = []

        def node0():
            yield Barrier()
            done.append(0)

        def node1():
            done.append(1)
            return
            yield  # pragma: no cover

        run_spmd([node0(), node1()], net)
        assert sorted(done) == [0, 1]

    def test_recv_before_send_ordering(self):
        # receiver blocks first, sender arrives later: must still deliver
        net = Network(2)
        got = []

        def receiver():
            v = yield Recv(1, "x")
            got.append(v)

        def sender():
            yield Yield()
            yield Yield()
            net.send(1, 0, "x", 99)

        run_spmd([receiver(), sender()], net)
        assert got == [99]

    def test_stats_recorded(self):
        net = Network(2)
        stats = MachineStats.for_nodes(2)

        def node0():
            net.send(0, 1, "t", 1)
            yield Barrier()

        def node1():
            _ = yield Recv(0, "t")
            yield Barrier()

        run_spmd([node0(), node1()], net, stats)
        assert stats[1].recvs == 1
        assert stats[0].barriers == 1
        assert stats[1].barriers == 1


class TestLocalMemoryPlacement:
    def test_scatter_gather_roundtrip_block(self):
        d = Block(17, 4)
        mems = [LocalMemory(p) for p in range(4)]
        arr = np.arange(17.0)
        scatter_global("A", arr, d, mems)
        out = gather_global("A", d, mems)
        assert np.array_equal(out, arr)

    def test_scatter_gather_roundtrip_scatter(self):
        d = Scatter(17, 4)
        mems = [LocalMemory(p) for p in range(4)]
        arr = np.arange(17.0) * 2
        scatter_global("A", arr, d, mems)
        out = gather_global("A", d, mems)
        assert np.array_equal(out, arr)

    def test_local_layout_matches_decomposition(self):
        d = Scatter(12, 4)
        mems = [LocalMemory(p) for p in range(4)]
        scatter_global("A", np.arange(12.0), d, mems)
        assert list(mems[1]["A"]) == [1.0, 5.0, 9.0]

    def test_replicated_copies_everywhere(self):
        d = Replicated(5, 3)
        mems = [LocalMemory(p) for p in range(3)]
        scatter_global("A", np.arange(5.0), d, mems)
        for mem in mems:
            assert np.array_equal(mem["A"], np.arange(5.0))

    def test_replicated_gather_checks_consistency(self):
        d = Replicated(5, 3)
        mems = [LocalMemory(p) for p in range(3)]
        scatter_global("A", np.arange(5.0), d, mems)
        mems[2]["A"][0] = 99
        with pytest.raises(AssertionError):
            gather_global("A", d, mems)

    def test_size_mismatch_rejected(self):
        d = Block(10, 2)
        with pytest.raises(ValueError):
            scatter_global("A", np.zeros(9), d, [LocalMemory(0), LocalMemory(1)])


class TestDistributedMachine:
    def test_place_collect_roundtrip(self):
        m = DistributedMachine(4)
        arr = np.arange(20.0)
        m.place("A", arr, Block(20, 4))
        assert np.array_equal(m.collect("A"), arr)

    def test_pmax_mismatch_rejected(self):
        m = DistributedMachine(4)
        with pytest.raises(ValueError):
            m.place("A", np.zeros(10), Block(10, 2))

    def test_run_node_programs_with_context(self):
        m = DistributedMachine(2)
        m.place("A", np.zeros(4), Block(4, 2))

        def prog(ctx):
            def gen():
                ctx.update("A", 0, ctx.p + 1.0)
                ctx.update("A", 1, ctx.p + 1.0)
                yield ctx.barrier()
            return gen()

        m.run(prog)
        assert list(m.collect("A")) == [1.0, 1.0, 2.0, 2.0]
        assert m.stats.total_updates() == 4

    def test_undrained_network_flagged(self):
        m = DistributedMachine(2)

        def prog(ctx):
            def gen():
                if ctx.p == 0:
                    ctx.send(1, "orphan", 1)
                yield ctx.barrier()
            return gen()

        with pytest.raises(AssertionError):
            m.run(prog)


class TestSharedMachine:
    def test_phase_commits_after_barrier(self):
        env = {"A": np.array([1.0, 2.0, 3.0, 4.0])}
        m = SharedMachine(2, env)

        # every node shifts its half: A[i] := A[i+1] — must read pre-state
        def phase(p):
            lo, hi = (0, 1) if p == 0 else (2, 2)
            return [("A", i, m.env["A"][i + 1]) for i in range(lo, hi + 1)]

        m.run_phase(phase)
        assert list(m.env["A"]) == [2.0, 3.0, 4.0, 4.0]

    def test_sequential_phase_commits_immediately(self):
        env = {"A": np.array([1.0, 0.0])}
        m = SharedMachine(2, env)

        def phase(p):
            # node p copies A[0] into A[p]... node 1 sees node 0's write
            return [("A", p, m.env["A"][0] + 1)]

        m.run_sequential_phase(phase)
        assert list(m.env["A"]) == [2.0, 3.0]

    def test_stats_update_counts(self):
        m = SharedMachine(2, {"A": np.zeros(4)})
        m.run_phase(lambda p: [("A", 2 * p + k, 1.0) for k in range(2)])
        assert m.stats.update_counts() == [2, 2]


class TestMachineStats:
    def test_load_imbalance(self):
        s = MachineStats.for_nodes(4)
        for p, n in enumerate([10, 10, 10, 10]):
            s[p].local_updates = n
        assert s.load_imbalance() == 1.0
        s[0].local_updates = 40
        assert s.load_imbalance() > 2.0

    def test_summary_keys(self):
        s = MachineStats.for_nodes(2)
        assert set(s.summary()) == {
            "messages", "elements_moved", "updates", "tests", "iterations",
        }
