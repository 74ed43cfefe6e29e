"""The in-process distributed ``fused`` run against the schedule it
replaced.

``run_sequence`` over a ``LocalTransport`` is the one statement of the
§2.10 overlap schedule.  Its predecessor, a generator per node driven by
the simulator's round-robin scheduler, lives on here as the oracle: the
same node kernels, rows and entry, but every send, receive, probe and
barrier a request to ``run_spmd`` over the simulated ``Network``.  Both
must leave every placed array bit-identical and every node's counters
equal field by field — except ``steps``, the scheduler resumptions only
the oracle has — on fresh machines and on a pre-placed one whose ghost
frames persist from step to step, with and without a latency model."""

import numpy as np
import pytest

from repro.codegen.dist_tmpl import run_distributed
from repro.core import Clause, IndexSet
from repro.decomp import Block, GridDecomposition, Scatter
from repro.machine import (
    DeadlockError,
    DistributedMachine,
    Irecv,
    LatencyModel,
    Probe,
)
from repro.machine.fused import FUSED, _lane_row
from repro.pipeline import clear_plan_cache
from repro.pipeline.kernels import flavor_nodes

from .conftest import counters
from .test_persistent_machine import (
    case,
    compiled,
    e13,
    e19,
    env_for,
    ref1,
)


@pytest.fixture(autouse=True)
def _fresh_plans():
    """The error tests corrupt cached node kernels: no plan outlives a
    test."""
    clear_plan_cache()
    yield
    clear_plan_cache()


def oracle_node_program(k, nk, entry, ctx):
    """Node *nk*'s program as a generator over the simulated mailbox:
    sends first, non-blocking receives posted into the rows (a ghost
    read's strips into its frame), the split's interior lanes charged
    (and committed, where the node has an interior block) while messages
    are in flight, a probe-driven drain, then the rest."""
    frames = {name: ctx.mem.frame(name, m) for name, m in nk.margins.items()}
    bufs = {**ctx.mem.arrays, **frames}
    for s in nk.sends:
        ctx.stats.iterations += s.count
        for q, region in s.peers:
            ctx.send(q, ("fus", s.pos), region.full(bufs[s.name]).flatten())
    ctx.stats.iterations += nk.n
    if nk.n:
        rows, pending = [], []
        for r in nk.reads:
            row = _lane_row(r, bufs[r.name], nk.shape, r.name == k.write_name)
            rows.append(row)
            into = row if r.lanes is not None else bufs[r.name]
            for src, fill in r.sources:
                handle = yield Irecv(src, ("fus", r.pos))
                pending.append((handle, into, fill))
        out = bufs[k.write_name]

        def commit(blocks, n):
            model = ctx.machine.model
            if model is not None and n:
                ctx.stats.vtime += n * model.t_element
            for blk in blocks:
                ctx.stats.local_updates += int(entry(blk, rows, out))

        commit([nk.interior] if nk.interior is not None else [], nk.inner)
        while pending:
            done = yield Probe([h for h, _, _ in pending])
            i = next(j for j, (h, _, _) in enumerate(pending) if h is done)
            _, into, fill = pending.pop(i)
            fill.put(into, np.asarray(ctx.note_received(done.payload),
                                      dtype=np.float64).reshape(fill.shape))
        commit(nk.blocks, nk.n - nk.inner)
    yield ctx.barrier()


def decomps_of(plan):
    return {acc.name: acc.dec for acc in reversed(plan.accesses())}


def placed(plan, env, model=None):
    m = DistributedMachine(plan.pmax, model=model)
    for name, dec in decomps_of(plan).items():
        m.place(name, env[name], dec)
    return m


def run_oracle(plan, machine):
    k, nodes, entry = FUSED.bind(plan, "dist", False)
    machine.run(lambda ctx: oracle_node_program(k, nodes[ctx.p], entry, ctx))
    return machine


def run_new(plan, machine):
    return run_distributed(plan, None, machine=machine, backend="fused")


def assert_same(plan, old, new, names):
    for name in names:
        assert np.array_equal(old.collect(name).view(np.uint64),
                              new.collect(name).view(np.uint64)), name
    assert counters(new) == counters(old)
    assert [n.vtime for n in new.stats.nodes] == \
        [n.vtime for n in old.stats.nodes]
    assert not any(n.steps for n in new.stats.nodes)


def with_extra(name):
    """The persistent-machine cases, plus a read of the write target
    and a 2-D grid whose second axis is scattered."""
    if name == "write-target-read":  # A[i] := A[i+1] + B[i]: pre-state copy
        return ([Clause(IndexSet.range1d(0, 22), ref1("A", 1, 0),
                        ref1("A", 1, 1) + ref1("B", 1, 0))],
                {"A": Block(24, 4), "B": Scatter(24, 4)})
    if name == "e19-block-scatter":  # 2-D fetched reads with lane rows
        g = GridDecomposition([Block(12, 2), Scatter(12, 2)])
        return [e19(12, "S", "T"), e19(12, "T", "S")], {"S": g, "T": g}
    clauses, decomps, _ = case(name)
    return clauses, decomps


CASES = ("e19-2x2", "e19-block-scatter", "e13-block-block",
         "radius3-pingpong", "guarded-stencil", "shift-block-1", "reversed",
         "reversed-shift", "bs1d", "write-target-read")
MODEL = LatencyModel(alpha=100.0, beta=0.1, t_element=1.0)


@pytest.mark.parametrize("model", (None, MODEL), ids=("plain", "model"))
@pytest.mark.parametrize("name", CASES)
def test_fresh_machine_matches_the_generator_oracle(name, model):
    clauses, decomps = with_extra(name)
    env = env_for(decomps)
    plan = compiled(clauses[0], decomps)
    old = run_oracle(plan, placed(plan, env, model))
    new = run_new(plan, placed(plan, env, model))
    assert_same(plan, old, new, decomps)


def test_the_cases_cover_every_read_shape():
    """Ghost reads (``lanes`` None, strips into the frame), fetched reads
    with a lane row, a pre-state copy of the write target and a guard
    are all among the cases."""
    shapes = set()
    for name in CASES:
        clauses, decomps = with_extra(name)
        plan = compiled(clauses[0], decomps)
        for nk in flavor_nodes(plan, "dist"):
            for r in nk.reads:
                if r.sources:
                    shapes.add("ghost" if r.lanes is None else "fetched")
                if r.name == plan.write.name:
                    shapes.add("write-target")
        if plan.clause.guard is not None:
            shapes.add("guard")
        shapes.add(f"{plan.clause.domain.dim}-D")
    assert shapes == {"ghost", "fetched", "write-target", "guard",
                      "1-D", "2-D"}


@pytest.mark.parametrize("model", (None, MODEL), ids=("plain", "model"))
@pytest.mark.parametrize("name", ("e19-2x2", "e19-block-scatter",
                                  "e13-block-block", "radius3-pingpong"))
def test_persistent_machine_matches_the_generator_oracle(name, model):
    """S→T, T→S, ... for 5 steps on one pre-placed machine per side:
    the frames of the first step are the memory of every later one."""
    clauses, decomps = with_extra(name)
    env = env_for(decomps)
    plans = [compiled(c, decomps) for c in clauses]
    old = placed(plans[0], env, model)
    new = placed(plans[0], env, model)
    for step in range(5):
        plan = plans[step % len(plans)]
        run_oracle(plan, old)
        run_new(plan, new)
        assert_same(plan, old, new, decomps)
    framed = any(name in mem._frames and mem._frames[name][0] is mem[name]
                 for mem in new.memories for name in decomps)
    assert framed == any(nk.margins for plan in plans
                         for nk in flavor_nodes(plan, "dist"))


# ---------------------------------------------------------------------------
# message errors on the local transport
# ---------------------------------------------------------------------------

def block_stencil():
    decomps = {"A": Block(24, 4), "B": Block(24, 4)}
    plan = compiled(e13(24, "B", "A"), decomps)
    return plan, env_for(decomps)


def test_missing_message_is_a_structured_deadlock():
    """Node 1 sends nothing: its neighbours wait at the drain, in the
    scheduler's ``blocked`` shape, and the run cites SCHED001."""
    plan, env = block_stencil()
    nodes = flavor_nodes(plan, "dist")
    nodes[1].sends = ()
    with pytest.raises(DeadlockError, match="SCHED001") as exc:
        run_distributed(plan, env, backend="fused")
    waits = {nk.p: ("probe", tuple((1, r.pos) for r in nk.reads
                                   for src, _ in r.sources if src == 1))
             for nk in nodes}
    assert exc.value.blocked == {p: w for p, w in waits.items() if w[1]}
    assert sorted(exc.value.blocked) == [0, 2]
    assert exc.value.undelivered == []


@pytest.mark.parametrize("how", ("duplicate", "unexpected"))
def test_stray_message_is_a_coded_error(how):
    """A second copy of a message, or one to a node that expects nothing
    from its sender, is listed as undelivered and cites SCHED001 — never
    dropped silently, never a raw ``KeyError``."""
    plan, env = block_stencil()
    nodes = flavor_nodes(plan, "dist")
    send = nodes[1].sends[0]
    if how == "duplicate":
        send.peers = send.peers + send.peers[:1]
        stray = (1, send.peers[0][0], send.pos)
    else:  # node 1 also sends node 0's strip to node 3
        send.peers = send.peers + ((3, send.peers[0][1]),)
        stray = (1, 3, send.pos)
    with pytest.raises(DeadlockError, match="SCHED001") as exc:
        run_distributed(plan, env, backend="fused")
    assert exc.value.blocked == {}
    assert exc.value.undelivered == [stray]


# ---------------------------------------------------------------------------
# the latency model on the new path
# ---------------------------------------------------------------------------

def test_e19_makespan_closed_form_on_a_2x2_grid():
    """Per node ``max(interior * t, alpha + beta * k) + boundary * t``,
    synced to the laggard — the closed form of ``TestLatencyModel``, on
    the 2-D grid: each node gets one strip of n/2 - 1 lanes per
    neighbour."""
    n = 64
    g = GridDecomposition([Block(n, 2), Block(n, 2)])
    plan = compiled(e19(n, "S", "T"), {"S": g, "T": g})
    m = run_new(plan, placed(plan, env_for({"S": g, "T": g}), MODEL))
    t, hop = MODEL.t_element, MODEL.message_time(n // 2 - 1)
    want = []
    for nk in flavor_nodes(plan, "dist"):
        ns = plan.interior_split.per_node[nk.p]
        inner, edge = ns.interior_count, ns.boundary_count
        assert inner + edge == (n // 2 - 1) ** 2 == nk.n
        want.append(max(inner * t, hop) + edge * t)
    assert m.stats.makespan() == max(want) == (n // 2 - 1) ** 2 * t
    assert all(node.vtime == m.stats.makespan() for node in m.stats.nodes)
