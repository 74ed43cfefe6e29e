"""Tests for the inspector/executor machinery (indirect accesses, §3)."""

import dataclasses

import numpy as np
import pytest

from repro.codegen import compile_clause, run_distributed
from repro.codegen.inspector import (
    build_schedule,
    compile_indirect,
    run_executor,
)
from repro.core import (
    PAR,
    SEQ,
    AffineF,
    Clause,
    IndexSet,
    Ref,
    SeparableMap,
    copy_env,
    evaluate_clause,
)
from repro.core.ifunc import IndirectF, classify
from repro.decomp import Block, Scatter
from repro.machine import DistributedMachine

N, PMAX = 24, 4


def indirect_clause(table, guard=None, ordering=PAR):
    return Clause(
        IndexSet.range1d(0, len(table) - 1),
        Ref("A", SeparableMap([AffineF(1, 0)])),
        Ref("B", SeparableMap([IndirectF(table)])) * 2 + 1,
        guard=guard,
        ordering=ordering,
    )


def machine_for(env0, dA, dB):
    m = DistributedMachine(dA.pmax)
    m.place("A", env0["A"], dA)
    m.place("B", env0["B"], dB)
    return m


@pytest.fixture
def table(rng):
    return rng.integers(0, N, N)


@pytest.fixture
def env0(rng):
    return {"A": np.zeros(N), "B": rng.random(N)}


class TestIndirectF:
    def test_classify(self, table):
        assert classify(IndirectF(table)) == "indirect"

    def test_eval(self):
        f = IndirectF([3, 1, 4, 1, 5])
        assert f(2) == 4

    def test_monotone_detection(self):
        assert IndirectF([1, 3, 7]).monotone_direction(0, 2) == 1
        assert IndirectF([7, 3, 1]).monotone_direction(0, 2) == -1
        assert IndirectF([1, 7, 3]).monotone_direction(0, 2) == 0

    def test_preimage_scan(self):
        f = IndirectF([3, 1, 4, 1, 5])
        assert f.preimage(1, 3, 0, 4) == [(0, 1), (3, 3)]

    def test_image_bounds(self):
        assert IndirectF([3, 1, 4]).image_bounds(0, 2) == (1, 4)


class TestValidation:
    def test_seq_rejected(self, table):
        with pytest.raises(ValueError, match="// clauses"):
            compile_indirect(indirect_clause(table, ordering=SEQ),
                             {"A": Block(N, 4), "B": Block(N, 4)})

    def test_requires_identity_write(self, table):
        cl = Clause(
            IndexSet.range1d(0, N // 2 - 1),
            Ref("A", SeparableMap([AffineF(2, 0)])),
            Ref("B", SeparableMap([IndirectF(table)])),
        )
        with pytest.raises(ValueError, match="identity writes"):
            compile_indirect(cl, {"A": Block(N, 4), "B": Block(N, 4)})

    def test_requires_indirect_read(self):
        cl = Clause(
            IndexSet.range1d(0, N - 1),
            Ref("A", SeparableMap([AffineF(1, 0)])),
            Ref("B", SeparableMap([AffineF(1, 0)])),
        )
        with pytest.raises(ValueError, match="IndirectF"):
            compile_indirect(cl, {"A": Block(N, 4), "B": Block(N, 4)})

    def test_table_must_cover_domain(self):
        cl = indirect_clause(np.arange(5))
        cl = dataclasses.replace(cl, domain=IndexSet.range1d(0, 9))
        with pytest.raises(ValueError, match="does not cover"):
            compile_indirect(cl, {"A": Block(10, 2), "B": Block(10, 2)})


class TestExecutor:
    @pytest.mark.parametrize("mkA,mkB", [
        (lambda: Block(N, PMAX), lambda: Block(N, PMAX)),
        (lambda: Block(N, PMAX), lambda: Scatter(N, PMAX)),
        (lambda: Scatter(N, PMAX), lambda: Block(N, PMAX)),
    ], ids=["bb", "bs", "sb"])
    def test_matches_reference(self, mkA, mkB, table, env0):
        cl = indirect_clause(table)
        ref = evaluate_clause(cl, copy_env(env0))["A"]
        dA, dB = mkA(), mkB()
        plan = compile_indirect(cl, {"A": dA, "B": dB})
        sched = build_schedule(plan)
        m = machine_for(copy_env(env0), dA, dB)
        run_executor(sched, m)
        assert np.allclose(m.collect("A"), ref)

    def test_schedule_is_reusable(self, table, env0, rng):
        # same schedule, changing B values across "time steps"
        cl = indirect_clause(table)
        dA, dB = Block(N, PMAX), Scatter(N, PMAX)
        plan = compile_indirect(cl, {"A": dA, "B": dB})
        sched = build_schedule(plan)
        for step in range(3):
            env = {"A": np.zeros(N), "B": rng.random(N)}
            ref = evaluate_clause(cl, copy_env(env))["A"]
            m = machine_for(copy_env(env), dA, dB)
            run_executor(sched, m)
            assert np.allclose(m.collect("A"), ref), step

    def test_executor_coalesces_messages(self, table, env0):
        cl = indirect_clause(table)
        dA, dB = Block(N, PMAX), Scatter(N, PMAX)
        plan = compile_indirect(cl, {"A": dA, "B": dB})
        sched = build_schedule(plan)
        m = machine_for(copy_env(env0), dA, dB)
        run_executor(sched, m)
        # one message per communicating pair, never per element
        assert m.stats.total_messages() == sched.message_count()
        assert m.stats.total_messages() <= PMAX * (PMAX - 1)
        # the general template pays per element
        m2 = run_distributed(compile_clause(cl, {"A": dA, "B": dB}),
                             copy_env(env0))
        assert m.stats.total_messages() <= m2.stats.total_messages()

    def test_guarded_indirect(self, table, rng):
        guard = Ref("B", SeparableMap([IndirectF(table)])) > 0.5
        # guard + rhs reads must be the SAME single operand: reuse ref
        cl = Clause(
            IndexSet.range1d(0, N - 1),
            Ref("A", SeparableMap([AffineF(1, 0)])),
            Ref("B", SeparableMap([IndirectF(table)])) * 2,
        )
        # single-read restriction: guard-free path is the supported one
        env = {"A": np.zeros(N), "B": rng.random(N)}
        ref = evaluate_clause(cl, copy_env(env))["A"]
        dA, dB = Scatter(N, PMAX), Block(N, PMAX)
        plan = compile_indirect(cl, {"A": dA, "B": dB})
        m = machine_for(copy_env(env), dA, dB)
        run_executor(build_schedule(plan), m)
        assert np.allclose(m.collect("A"), ref)

    def test_reinspection_after_table_change(self, rng):
        t1 = rng.integers(0, N, N)
        t2 = rng.integers(0, N, N)
        env = {"A": np.zeros(N), "B": rng.random(N)}
        dA, dB = Block(N, PMAX), Scatter(N, PMAX)
        cl1 = indirect_clause(t1)
        plan = compile_indirect(cl1, {"A": dA, "B": dB})
        # re-inspect with a different table: schedule must follow it
        sched2 = build_schedule(plan, t2)
        cl2 = indirect_clause(t2)
        ref = evaluate_clause(cl2, copy_env(env))["A"]
        m = machine_for(copy_env(env), dA, dB)
        run_executor(sched2, m)
        # note: ops evaluate the *clause's* rhs but operands come from the
        # schedule built on t2; rhs shape (x*2+1) is table-independent
        assert np.allclose(m.collect("A"), ref)

    def test_identity_table_no_messages_when_aligned(self, env0):
        table = np.arange(N)
        cl = indirect_clause(table)
        dA = dB = Block(N, PMAX)
        plan = compile_indirect(cl, {"A": dA, "B": dB})
        sched = build_schedule(plan)
        m = machine_for(copy_env(env0), dA, dB)
        run_executor(sched, m)
        assert m.stats.total_messages() == 0

    def test_general_template_also_handles_indirect(self, table, env0):
        # the Table I dispatch degrades to the naive rule but stays correct
        cl = indirect_clause(table)
        plan = compile_clause(cl, {"A": Block(N, PMAX), "B": Scatter(N, PMAX)})
        ref = evaluate_clause(cl, copy_env(env0))["A"]
        m = run_distributed(plan, copy_env(env0))
        assert np.allclose(m.collect("A"), ref)
