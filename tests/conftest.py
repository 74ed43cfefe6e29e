"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import contextlib
import os

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.core.ifunc import AffineF, ConstantF, ModularF, MonotoneF
from repro.decomp import Block, BlockScatter, Scatter, SingleOwner


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

def decompositions(max_n: int = 64, max_p: int = 8):
    """Strategy producing bijective 1-D decompositions."""

    def build(draw_tuple):
        kind, n, pmax, b, owner = draw_tuple
        pmax = max(1, pmax)
        n = max(1, n)
        if kind == "block":
            return Block(n, pmax)
        if kind == "scatter":
            return Scatter(n, pmax)
        if kind == "bs":
            return BlockScatter(n, pmax, max(1, b))
        return SingleOwner(n, pmax, owner % pmax)

    return st.tuples(
        st.sampled_from(["block", "scatter", "bs", "single"]),
        st.integers(1, max_n),
        st.integers(1, max_p),
        st.integers(1, 8),
        st.integers(0, max_p - 1),
    ).map(build)


def affine_funcs(max_a: int = 6, max_c: int = 10):
    """Non-degenerate affine access functions, both slopes."""
    return st.tuples(
        st.integers(-max_a, max_a).filter(lambda a: a != 0),
        st.integers(-max_c, max_c),
    ).map(lambda t: AffineF(*t))


def index_funcs():
    """Constant, affine, modular, or monotone access functions."""
    constant = st.integers(0, 40).map(ConstantF)
    affine = affine_funcs()
    modular = st.tuples(
        st.integers(1, 3),
        st.integers(0, 10),
        st.integers(3, 30),
        st.integers(0, 5),
    ).map(lambda t: ModularF(AffineF(t[0], t[1]), t[2], t[3]))
    monotone = st.just(
        MonotoneF(lambda i: i + i // 4, 1, "i+i div 4")
    )
    return st.one_of(constant, affine, modular, monotone)


# ---------------------------------------------------------------------------
# plain fixtures
# ---------------------------------------------------------------------------

@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def fig2_params():
    """The Fig. 2 configuration: 15 elements on 4 processors."""
    return {"n": 15, "pmax": 4}


def own_shm_segments() -> set:
    """The ``/dev/shm`` segments this process created: the runtime names
    them ``repro-mp-<creator pid % 100000>-<n>``, so a concurrent run
    elsewhere on the host never reads as a leak here."""
    if not os.path.isdir("/dev/shm"):
        return set()
    prefix = f"repro-mp-{os.getpid() % 100000}-"
    return {f for f in os.listdir("/dev/shm") if f.startswith(prefix)}


# ---------------------------------------------------------------------------
# the cross-tier differential
# ---------------------------------------------------------------------------

IN_PROCESS_TIERS = ("scalar", "fused")
ALL_TIERS = IN_PROCESS_TIERS + ("mp", "mpi")


@contextlib.contextmanager
def _pinned(variable, reset):
    """Set environment *variable* to ``1`` around a block, calling
    *reset* (the cached probe that reads it) on the way in and out."""
    old = os.environ.get(variable)
    os.environ[variable] = "1"
    reset()
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(variable, None)
        else:
            os.environ[variable] = old
        reset()


def mpi_stub():
    """Pin the mpi tier to its threaded stub transport: the real rank
    and transport code without paying an ``mpiexec`` launch per run."""
    from repro.mpi import reset_mpi_support

    return _pinned("REPRO_MPI_STUB", reset_mpi_support)


def counters(machine):
    """Per-node counters minus the simulator's scheduler resumptions
    (real processes have no scheduler to count)."""
    return [dict(vars(n), steps=0) for n in machine.stats.nodes]


#: one machine, several tiers: every hand-over between an executor that
#: frames node memory with ghost cells and one that sees only the core
MIXED_TIERS = ("fused", "scalar", "fused", "scalar")


def check_all_tiers(clause, decomps, env, tiers=ALL_TIERS, processes=2,
                    steps=0):
    """Run one ``//`` clause on the shared and the distributed machine
    under every tier in *tiers* (``mp`` on *processes* workers, ``mpi``
    on the stub transport) and assert the cross-tier contract:
    post-state bit-identical to the sequential evaluator, the batching
    tiers (everything but scalar) exchanging exactly the same messages
    and elements, batching changing only how elements are packed, never
    which move — and the real-process tiers agreeing with ``fused`` on
    every counter of every node.  Returns ``(plan, {(machine, tier):
    machine})``.

    *clause* may be a sequence of clauses over the same arrays (its
    first is what the fresh-machine runs above execute).  With *steps*,
    the clauses then run *steps* times in rotation on ONE pre-placed
    distributed machine per in-process tier, and once through
    :data:`MIXED_TIERS` on a single machine: every placed array
    bit-identical to the evaluator's after every step, fresh data re-placed half way honoured, the
    batching tiers' counters equal step for step, no tier falling
    back."""
    from repro.codegen.dist_tmpl import run_distributed
    from repro.codegen.nddist import compile_clause_nd_dist
    from repro.codegen.plan import compile_clause
    from repro.codegen.shared_tmpl import run_shared
    from repro.core import copy_env, evaluate_clause
    from repro.machine import DistributedMachine

    clauses = list(clause) if isinstance(clause, (list, tuple)) else [clause]
    with contextlib.ExitStack() as stack:
        if "mpi" in tiers:
            stack.enter_context(mpi_stub())
        plans = [compile_clause(c, decomps) if c.domain.dim == 1
                 else compile_clause_nd_dist(c, decomps) for c in clauses]
        clause, plan = clauses[0], plans[0]
        name = clause.lhs.name
        ref = evaluate_clause(clause, copy_env(env))[name]
        ran, moved = {}, {}
        for tier in tiers:
            m = run_shared(plan, copy_env(env), backend=tier,
                           processes=processes)
            assert np.array_equal(m.env[name], ref), f"shared {tier}"
            ran["shared", tier] = m
            m = run_distributed(plan, copy_env(env), backend=tier,
                                processes=processes)
            assert np.array_equal(m.collect(name), ref), f"dist {tier}"
            ran["dist", tier] = m
            moved[tier] = (m.stats.total_messages(),
                           m.stats.total_elements_moved())

        def persistent(sequence):
            """Counters after each step of *sequence* on one machine."""
            m, ref, seen = DistributedMachine(plan.pmax), copy_env(env), []
            for i, tier in enumerate(sequence):
                if i in (0, len(sequence) // 2):  # the second: fresh data
                    ref = {k: np.sqrt(v + i) for k, v in ref.items()}
                    for k, dec in decomps.items():
                        m.place(k, ref[k], dec)
                evaluate_clause(clauses[i % len(clauses)], ref)
                run_distributed(plans[i % len(plans)], copy_env(ref),
                                machine=m, backend=tier)
                for k in decomps:
                    assert np.array_equal(m.collect(k), ref[k]), \
                        (sequence, i, k)
                seen.append(counters(m))
            return seen

        if steps:
            inproc = [t for t in IN_PROCESS_TIERS if t in tiers]
            per_step = {t: persistent([t] * steps) for t in inproc}
            if set(MIXED_TIERS) <= set(inproc):
                persistent(MIXED_TIERS)
            assert not any("fell back" in note for p in plans
                           for note in p.trace.notes)
            stepwise = [v for t, v in per_step.items() if t != "scalar"]
            assert all(v == stepwise[0] for v in stepwise)
    batching = {t: v for t, v in moved.items() if t != "scalar"}
    assert len(set(batching.values())) <= 1, batching
    if "scalar" in moved and batching:
        assert moved["scalar"][1] == next(iter(batching.values()))[1]
    if "fused" in tiers:
        for machine, tier in ran:
            if tier in ("mp", "mpi"):
                assert counters(ran[machine, tier]) == \
                    counters(ran[machine, "fused"]), (machine, tier)
    return plan, ran
