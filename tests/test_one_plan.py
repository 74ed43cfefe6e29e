"""One plan type, two rank-generic templates.

``compile_clause``, ``compile_clause_nd`` and ``compile_clause_nd_dist``
are contract checks over ``compile_plan`` and return the ``PlanIR``
itself, so any plan runs on either scalar template — with the 1-D
template's accounting at every rank — and the two real preconditions
(the source emitter is 1-D; distributed execution needs every read
placed) are coded one-line errors.
"""

import numpy as np
import pytest

from repro.codegen import (
    CodegenError,
    compile_clause,
    compile_clause_nd,
    compile_clause_nd_dist,
    compile_distributed,
    compile_shared,
    emit_distributed_source,
    emit_shared_source,
    run_distributed,
    run_distributed_nd,
    run_shared,
    run_shared_nd,
)
from repro.core import (
    PAR,
    SEQ,
    AffineF,
    BinOp,
    Clause,
    Const,
    IdentityF,
    IndexSet,
    Ref,
    SeparableMap,
    copy_env,
    evaluate_clause,
)
from repro.core.bounds import Bounds
from repro.decomp import Block, BlockScatter, GridDecomposition, Scatter
from repro.pipeline.ir import PlanIR

N, M, P = 24, 12, 4


def ref1(name, c=0):
    return Ref(name, SeparableMap([AffineF(1, c) if c else IdentityF()]))


def ref2(name, di=0, dj=0):
    return Ref(name, SeparableMap([AffineF(1, di) if di else IdentityF(),
                                   AffineF(1, dj) if dj else IdentityF()]))


def stencil_1d(ordering=PAR, guarded=False):
    return Clause(
        IndexSet(Bounds((1,), (N - 2,))), ref1("A"),
        (ref1("B", -1) + ref1("B", 1)) * 0.5,
        ordering=ordering,
        guard=BinOp(">", ref1("B"), Const(0.5)) if guarded else None)


def stencil_2d():
    return Clause(
        IndexSet(Bounds((1, 1), (M - 2, M - 2))), ref2("T"),
        (ref2("S", -1, 0) + ref2("S", 1, 0)
         + ref2("S", 0, -1) + ref2("S", 0, 1)) * 0.25)


def env_1d():
    rng = np.random.default_rng(7)
    return {"A": rng.random(N), "B": rng.random(N)}


def env_2d():
    rng = np.random.default_rng(7)
    return {"S": rng.random((M, M)), "T": rng.random((M, M))}


def grid(a=Block, b=Block):
    def axis(kind):
        return BlockScatter(M, 2, 2) if kind is BlockScatter else kind(M, 2)
    return GridDecomposition([axis(a), axis(b)])


def test_every_compile_entry_returns_the_plan_ir():
    d1 = {"A": Block(N, P), "B": Block(N, P)}
    d2 = {"T": grid(), "S": grid()}
    assert type(compile_clause(stencil_1d(), d1)) is PlanIR
    assert type(compile_clause_nd(stencil_2d(), d2)) is PlanIR
    assert type(compile_clause_nd_dist(stencil_2d(), d2)) is PlanIR
    assert run_shared_nd is run_shared
    assert run_distributed_nd is run_distributed


# -- a plan of any kind on a consumer of any kind ---------------------------

def _emit_all(plan):
    for fn in (emit_distributed_source, emit_shared_source,
               compile_distributed, compile_shared):
        with pytest.raises(CodegenError, match="rank 2"):
            fn(plan)


def _runs(runner, collect):
    def consume(plan):
        env0 = env_2d()
        ref = evaluate_clause(plan.clause, copy_env(env0))["T"]
        assert np.array_equal(collect(runner(plan, copy_env(env0))), ref)
    return consume


def _refuses_unplaced_read(plan):
    with pytest.raises(ValueError, match="'S' has no decomposition"):
        run_distributed_nd(plan, env_2d())


PLACED = {"T": grid(), "S": grid(Scatter, Block)}

WRONG_KIND = {
    "emit(nd-dist plan)": (compile_clause_nd_dist, PLACED, _emit_all),
    "run_distributed(nd-dist plan)": (
        compile_clause_nd_dist, PLACED,
        _runs(run_distributed, lambda m: m.collect("T"))),
    "run_shared_nd(nd-dist plan)": (
        compile_clause_nd_dist, PLACED,
        _runs(run_shared_nd, lambda m: m.env["T"])),
    "run_distributed_nd(nd-shared plan)": (
        compile_clause_nd, {"T": grid()}, _refuses_unplaced_read),
    "run_shared(nd-shared plan)": (
        compile_clause_nd, {"T": grid()},
        _runs(run_shared, lambda m: m.env["T"])),
}


@pytest.mark.parametrize("case", sorted(WRONG_KIND))
def test_any_plan_on_any_consumer_runs_or_fails_coded(case):
    compile_, decomps, consume = WRONG_KIND[case]
    consume(compile_(stencil_2d(), decomps))


# -- one accounting: the 1-D template's, whichever entry compiled the plan --

DECS_1D = {
    "block": lambda: Block(N, P),
    "scatter": lambda: Scatter(N, P),
    "bs2": lambda: BlockScatter(N, P, 2),
}


@pytest.mark.parametrize("guarded", (False, True))
@pytest.mark.parametrize("ordering", (PAR, SEQ))
@pytest.mark.parametrize("read", sorted(DECS_1D))
@pytest.mark.parametrize("write", sorted(DECS_1D))
def test_three_entries_one_accounting(write, read, ordering, guarded):
    clause = stencil_1d(ordering, guarded)
    decomps = {"A": DECS_1D[write](), "B": DECS_1D[read]()}
    env0 = env_1d()
    ref = evaluate_clause(clause, copy_env(env0))["A"]
    shared, dist = [], []
    for compile_ in (compile_clause, compile_clause_nd,
                     compile_clause_nd_dist):
        if ordering is SEQ and compile_ is compile_clause_nd_dist:
            continue  # its contract: // only
        plan = compile_(clause, decomps)
        shared.append(run_shared(plan, copy_env(env0)))
        if ordering is PAR:
            dist.append(run_distributed(plan, copy_env(env0)))
    for m in shared:
        assert np.array_equal(m.env["A"], ref)
        assert m.stats == shared[0].stats
    for m in dist:
        assert np.array_equal(m.collect("A"), ref)
        assert m.stats == dist[0].stats


def test_membership_tests_are_charged_on_grids():
    clause = stencil_2d()
    decomps = {"T": grid(Scatter, BlockScatter),
               "S": grid(Scatter, BlockScatter)}
    dist = run_distributed_nd(compile_clause_nd_dist(clause, decomps),
                              env_2d())
    assert dist.stats.total_tests() > 0
    clause.ordering = SEQ
    seq = run_shared_nd(compile_clause_nd(clause, decomps), env_2d())
    assert seq.stats.total_tests() == (M - 2) ** 2
