"""Tests for the overlapped-communication machinery.

Covers the `split-interior` pass, the non-blocking ``Irecv``/``Probe``
scheduler primitives, the latency model's virtual-time accounting, the
compile-once plan cache, and the Table I construction memo.
"""

import numpy as np
import pytest

from repro.codegen import compile_clause, run_distributed
from repro.codegen.nddist import (
    collect_nd,
    compile_clause_nd_dist,
    run_distributed_nd,
)
from repro.core import (
    SEQ,
    AffineF,
    Bounds,
    Clause,
    IdentityF,
    IndexSet,
    Ref,
    SeparableMap,
    copy_env,
)
from repro.decomp import Block, GridDecomposition, Replicated, Scatter
from repro.machine import (
    Barrier,
    DeadlockError,
    Irecv,
    LatencyModel,
    MachineStats,
    Network,
    Probe,
    Recv,
    RecvFuture,
    run_spmd,
)
from repro.pipeline import (
    clear_plan_cache,
    enable_plan_cache,
    plan_cache,
    plan_cache_info,
    plan_key,
)
from repro.sets.table1 import (
    clear_table1_cache,
    optimize_access,
    table1_cache_info,
)

N, P = 48, 4


def stencil_clause(n=N):
    return Clause(
        IndexSet(Bounds((1,), (n - 2,))),
        Ref("A", SeparableMap([IdentityF()])),
        Ref("B", SeparableMap([AffineF(1, -1)]))
        + Ref("B", SeparableMap([AffineF(1, 1)])),
    )


def stencil_env(n=N, seed=0):
    rng = np.random.default_rng(seed)
    return {"A": np.zeros(n), "B": rng.random(n)}


class TestSplitInteriorPass:
    def test_pass_appears_in_trace(self):
        plan = compile_clause(stencil_clause(), {"A": Block(N, P),
                                                 "B": Block(N, P)})
        rec = plan.trace.record("split-interior")
        assert rec is not None
        assert rec.rewrites == 1  # non-empty interior found
        assert any("interior" in note for note in rec.notes)

    def test_block_interior_counts(self):
        # n=48, P=4: each node owns 12 elements; with ±1 reads only the
        # two elements touching a partition boundary (one at the domain
        # edge nodes) need remote values.
        plan = compile_clause(stencil_clause(), {"A": Block(N, P),
                                                 "B": Block(N, P)})
        split = plan.ir.interior_split
        m, i, b = split.totals()
        assert (m, i, b) == (46, 40, 6)
        for p, ns in split.per_node.items():
            assert ns.modify_count == ns.interior_count + ns.boundary_count

    def test_scatter_interior_empty(self):
        plan = compile_clause(stencil_clause(), {"A": Block(N, P),
                                                 "B": Scatter(N, P)})
        rec = plan.trace.record("split-interior")
        assert rec.rewrites == 0
        assert plan.ir.interior_split.totals()[1] == 0

    def test_seq_clause_skipped(self):
        cl = Clause(
            IndexSet(Bounds((1,), (N - 2,))),
            Ref("A", SeparableMap([IdentityF()])),
            Ref("A", SeparableMap([AffineF(1, -1)])) * 0.5,
            ordering=SEQ,
        )
        plan = compile_clause(cl, {"A": Block(N, P)})
        assert plan.ir.interior_split is None
        rec = plan.trace.record("split-interior")
        assert rec is not None and rec.rewrites == 0

    def test_replicated_read_is_fully_interior(self):
        cl = Clause(
            IndexSet(Bounds((0,), (N - 1,))),
            Ref("A", SeparableMap([IdentityF()])),
            Ref("c", SeparableMap([IdentityF()])) + 1.0,
        )
        plan = compile_clause(cl, {"A": Block(N, P),
                                   "c": Replicated(N, P)})
        m, i, b = plan.ir.interior_split.totals()
        assert m == i == N and b == 0


class TestIrecvProbe:
    def test_irecv_resumes_immediately(self):
        net = Network(2)
        seen = []

        def node0():
            h = yield Irecv(1, "x")
            seen.append(("posted", h.done))  # resumed before any send
            net.send(0, 1, "go", None)
            done = yield Probe([h])
            seen.append(("done", done is h, done.payload))

        def node1():
            _ = yield Recv(0, "go")
            net.send(1, 0, "x", 42)

        run_spmd([node0(), node1()], net)
        assert seen == [("posted", False), ("done", True, 42)]

    def test_probe_drains_all_handles(self):
        # probing the not-yet-done remainder (as the overlap executor
        # does) eventually yields every posted receive exactly once
        net = Network(3)
        got = {}

        def node0():
            handles = [(yield Irecv(1, "a")), (yield Irecv(2, "b"))]
            while handles:
                done = yield Probe(handles)
                handles.remove(done)
                got[done.src] = done.payload
            yield Barrier()

        def sender(p, tag):
            def gen():
                net.send(p, 0, tag, p * 10)
                yield Barrier()
            return gen()

        run_spmd([node0(), sender(1, "a"), sender(2, "b")], net)
        assert got == {1: 10, 2: 20}

    def test_probe_prefers_already_done_handle(self):
        # a fulfilled handle satisfies a Probe immediately, before the
        # network is consulted for the others (documented list order)
        net = Network(2)
        seen = []

        def node0():
            h = yield Irecv(1, "x")
            done = yield Probe([h])
            seen.append(done is h)
            again = yield Probe([h])  # h already done: no new message read
            seen.append(again is h)
            yield Barrier()

        def node1():
            net.send(1, 0, "x", 1)
            yield Barrier()

        run_spmd([node0(), node1()], net)
        assert seen == [True, True]

    def test_probe_counts_recv_once(self):
        net = Network(2)
        stats = MachineStats.for_nodes(2)

        def node0():
            h = yield Irecv(1, "x")
            done = yield Probe([h])
            assert done.payload == 5
            yield Barrier()

        def node1():
            net.send(1, 0, "x", 5)
            yield Barrier()

        run_spmd([node0(), node1()], net, stats)
        assert stats[0].recvs == 1

    def test_recv_future_identity_equality(self):
        a = RecvFuture(0, "t")
        b = RecvFuture(0, "t")
        assert a != b and a == a


class TestDeadlockDiagnostics:
    def test_blocked_recv_and_undelivered_message(self):
        net = Network(2)

        def node0():
            yield Recv(1, "never")

        def node1():
            net.send(1, 0, "wrong-tag", 1)
            yield Recv(0, "never")

        with pytest.raises(DeadlockError) as ei:
            run_spmd([node0(), node1()], net)
        err = ei.value
        assert err.blocked == {0: ("recv", 1, "never"),
                               1: ("recv", 0, "never")}
        assert err.undelivered == [(1, 0, "wrong-tag")]

    def test_blocked_probe_lists_pending_handles(self):
        net = Network(2)

        def node0():
            h1 = yield Irecv(1, "a")
            h2 = yield Irecv(1, "b")
            yield Probe([h1, h2])

        def node1():
            yield Recv(0, "never")

        with pytest.raises(DeadlockError) as ei:
            run_spmd([node0(), node1()], net)
        err = ei.value
        assert err.blocked[0] == ("probe", ((1, "a"), (1, "b")))
        assert err.blocked[1] == ("recv", 0, "never")
        assert err.undelivered == []

    def test_probe_diagnosis_after_partial_drain(self):
        # 'a' arrives and is drained; the node then probes the remaining
        # posted receives, which never complete — the diagnosis names
        # exactly the still-pending (src, tag) pairs
        net = Network(2)

        def node0():
            h1 = yield Irecv(1, "a")
            h2 = yield Irecv(1, "b")
            h3 = yield Irecv(1, "c")
            done = yield Probe([h1, h2, h3])
            assert done is h1 and done.payload == 1
            yield Probe([h2, h3])

        def node1():
            net.send(1, 0, "a", 1)
            yield Recv(0, "never")

        with pytest.raises(DeadlockError) as ei:
            run_spmd([node0(), node1()], net)
        assert ei.value.blocked[0] == ("probe", ((1, "b"), (1, "c")))
        assert ei.value.blocked[1] == ("recv", 0, "never")


class TestLatencyModel:
    MODEL = LatencyModel(alpha=100.0, beta=0.1, t_element=1.0)

    def test_message_time(self):
        assert self.MODEL.message_time(10) == pytest.approx(101.0)
        assert LatencyModel().message_time(10) == 0.0

    def test_makespan_zero_without_model(self):
        plan = compile_clause(stencil_clause(), {"A": Block(N, P),
                                                 "B": Block(N, P)})
        m = run_distributed(plan, copy_env(stencil_env()), backend="fused")
        assert m.stats.makespan() == 0.0

    def test_overlap_beats_vector_makespan(self):
        """(Named when the two schedules were two tiers.)  The modeled
        time of the overlap schedule in closed form — per node
        ``max(interior * t, alpha + beta * k) + boundary * t`` — against
        drain-then-compute, ``(alpha + beta * k) + n_p * t``, on E13."""
        n, pmax = 4096, 4
        plan = compile_clause(stencil_clause(n), {"A": Block(n, pmax),
                                                  "B": Block(n, pmax)})
        env0 = stencil_env(n)
        base = run_distributed(plan, copy_env(env0), backend="fused")
        m = run_distributed(plan, copy_env(env0), backend="fused",
                            model=self.MODEL)
        assert np.array_equal(base.collect("A"), m.collect("A"))
        assert base.stats.total_messages() == m.stats.total_messages()
        assert (base.stats.total_elements_moved()
                == m.stats.total_elements_moved())
        hop = self.MODEL.message_time(1)  # every halo message: one element
        t = self.MODEL.t_element
        overlapped, drained = [], []
        for p, ns in plan.ir.interior_split.per_node.items():
            assert m.stats[p].recvs == m.stats[p].elements_received > 0
            overlapped.append(max(ns.interior_count * t, hop)
                              + ns.boundary_count * t)
            drained.append(hop + ns.modify_count * t)
        # interior work hides the modeled message latency
        assert m.stats.makespan() == max(overlapped) == 1024.0
        assert max(drained) == pytest.approx(1124.1)

    def test_model_does_not_change_results_or_traffic(self):
        plan = compile_clause(stencil_clause(), {"A": Block(N, P),
                                                 "B": Scatter(N, P)})
        env0 = stencil_env()
        base = run_distributed(plan, copy_env(env0), backend="fused")
        timed = run_distributed(plan, copy_env(env0), backend="fused",
                                model=self.MODEL)
        assert np.array_equal(base.collect("A"), timed.collect("A"))
        assert (base.stats.total_messages()
                == timed.stats.total_messages())
        assert (base.stats.total_elements_moved()
                == timed.stats.total_elements_moved())


class TestPlanCache:
    def setup_method(self):
        clear_plan_cache()
        enable_plan_cache(True)

    def _decomps(self):
        return {"A": Block(N, P), "B": Block(N, P)}

    def test_second_compile_hits(self):
        p1 = compile_clause(stencil_clause(), self._decomps())
        p2 = compile_clause(stencil_clause(), self._decomps())
        assert not p1.trace.cache_hit
        assert p2.trace.cache_hit
        assert p1.trace.cache_key == p2.trace.cache_key is not None
        info = plan_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_hit_shares_ir_but_not_trace_notes(self):
        p1 = compile_clause(stencil_clause(), self._decomps())
        p2 = compile_clause(stencil_clause(), self._decomps())
        assert p2.ir.interior_split is p1.ir.interior_split
        p2.trace.note("local remark")
        assert p2.trace.notes == ["local remark"]
        assert p1.trace.notes == []

    def test_different_decomposition_misses(self):
        compile_clause(stencil_clause(), self._decomps())
        p2 = compile_clause(stencil_clause(), {"A": Block(N, P),
                                               "B": Scatter(N, P)})
        assert not p2.trace.cache_hit

    def test_different_bounds_miss(self):
        compile_clause(stencil_clause(), self._decomps())
        p2 = compile_clause(stencil_clause(n=N - 8),
                            {"A": Block(N, P), "B": Block(N, P)})
        assert not p2.trace.cache_hit

    def test_disabled_cache_never_hits(self):
        enable_plan_cache(False)
        try:
            compile_clause(stencil_clause(), self._decomps())
            p2 = compile_clause(stencil_clause(), self._decomps())
            assert not p2.trace.cache_hit
        finally:
            enable_plan_cache(True)

    def test_nd_dist_compile_hits(self):
        n, side = 12, 2
        g = GridDecomposition([Block(n, side), Block(n, side)])
        cl = Clause(
            IndexSet(Bounds((1, 1), (n - 2, n - 2))),
            Ref("T", SeparableMap([IdentityF(), IdentityF()])),
            Ref("S", SeparableMap([AffineF(1, -1), IdentityF()])) * 0.5,
        )
        p1 = compile_clause_nd_dist(cl, {"T": g, "S": g})
        p2 = compile_clause_nd_dist(cl, {"T": g, "S": g})
        assert not p1.trace.cache_hit and p2.trace.cache_hit

    def test_cached_plan_runs_identically(self):
        env0 = stencil_env()
        p1 = compile_clause(stencil_clause(), self._decomps())
        a = run_distributed(p1, copy_env(env0),
                            backend="fused").collect("A")
        p2 = compile_clause(stencil_clause(), self._decomps())
        assert p2.trace.cache_hit
        b = run_distributed(p2, copy_env(env0),
                            backend="fused").collect("A")
        assert np.array_equal(a, b)

    def test_plan_key_is_structural(self):
        k1 = plan_key(stencil_clause(), self._decomps())
        k2 = plan_key(stencil_clause(), self._decomps())
        assert k1 == k2 and hash(k1) == hash(k2)
        k3 = plan_key(stencil_clause(), {"A": Block(N, P),
                                         "B": Scatter(N, P)})
        assert k3 != k1


class TestTable1Memo:
    def test_repeat_construction_is_cached(self):
        clear_table1_cache()
        d = Block(N, P)
        f = AffineF(1, -1)
        a1 = optimize_access(d, f, 1, N - 2)
        a2 = optimize_access(Block(N, P), AffineF(1, -1), 1, N - 2)
        assert a2 is a1  # structural key, not object identity
        info = table1_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_distinct_bounds_are_distinct_entries(self):
        clear_table1_cache()
        d = Block(N, P)
        a1 = optimize_access(d, IdentityF(), 0, N - 1)
        a2 = optimize_access(d, IdentityF(), 1, N - 2)
        assert a1 is not a2
        assert table1_cache_info()["misses"] == 2


class TestBackendFallbackNotes:
    def test_replicated_write_fallback_is_noted(self):
        cl = Clause(
            IndexSet(Bounds((0,), (N - 1,))),
            Ref("r", SeparableMap([IdentityF()])),
            Ref("B", SeparableMap([IdentityF()])) + 1.0,
        )
        plan = compile_clause(cl, {"r": Replicated(N, P),
                                   "B": Block(N, P)})
        env0 = {"r": np.zeros(N), "B": stencil_env()["B"]}
        run_distributed(plan, copy_env(env0), backend="fused")
        assert any("replicated write" in n for n in plan.trace.notes)
        assert "note:" in plan.trace.pretty()
