"""``min``/``max`` follow NumPy's rule on every tier, bit for bit.

The kernels compute ``np.minimum``/``np.maximum``: a NaN operand wins
and a tie is the second operand (``np.minimum(0.0, -0.0)`` is ``-0.0``).
Python's ``min``/``max`` keep the first operand of a tie and drop a NaN
that comes second, so a scalar path spelled with them disagrees with the
kernels silently — ``np.array_equal`` cannot see a signed-zero
difference and never calls two NaNs equal.  Every operand pair over
{NaN, ±inf, ±0, 5e-324, ±1}, in both argument orders, is compared here
by its bit pattern on every tier that evaluates the clause.
"""

import itertools

import numpy as np
import pytest

from repro.codegen import compile_clause, compile_distributed, compile_shared
from repro.codegen.dist_tmpl import run_distributed
from repro.codegen.shared_tmpl import run_shared
from repro.core import (
    BinOp,
    Clause,
    IdentityF,
    IndexSet,
    Ref,
    SeparableMap,
    copy_env,
    evaluate_clause,
)
from repro.core.expr import OPS
from repro.decomp import Block, Scatter
from repro.machine import DistributedMachine, SharedMachine

VALUES = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1.0, -1.0]
PAIRS = list(itertools.product(VALUES, repeat=2))  # both orders
N = len(PAIRS)
NUMPY = {"min": np.minimum, "max": np.maximum}


def bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def env() -> dict:
    return {"A": np.zeros(N),
            "B": np.array([a for a, _ in PAIRS]),
            "C": np.array([b for _, b in PAIRS])}


def ref(name: str) -> Ref:
    return Ref(name, SeparableMap([IdentityF()]))


def clause(op: str) -> Clause:
    return Clause(IndexSet.range1d(0, N - 1), ref("A"),
                  BinOp(op, ref("B"), ref("C")), name=op)


#: A and C blocked, B scattered: every node both receives and sends
DECOMPS = {"A": Block(N, 4), "B": Scatter(N, 4), "C": Block(N, 4)}


def want(op: str) -> np.ndarray:
    e = env()
    return bits(NUMPY[op](e["B"], e["C"]))


@pytest.mark.parametrize("op", ["min", "max"])
class TestNumPyRule:
    def test_scalar_op_is_numpy_on_every_pair(self, op):
        got = [OPS[op](a, b) for a, b in PAIRS]
        assert (bits(got) == want(op)).all()

    def test_python_builtin_disagrees(self, op):
        # the disagreement this pins down: a NaN second operand, and a
        # signed-zero tie
        builtin = {"min": min, "max": max}[op]
        got = bits([builtin(a, b) for a, b in PAIRS])
        assert (got != want(op)).any()

    def test_evaluator(self, op):
        out = evaluate_clause(clause(op), env())["A"]
        assert (bits(out) == want(op)).all()

    @pytest.mark.parametrize("backend", ["scalar", "fused", "mp"])
    def test_shared(self, op, backend):
        plan = compile_clause(clause(op), DECOMPS)
        m = run_shared(plan, env(), backend=backend, processes=2)
        assert (bits(m.env["A"]) == want(op)).all()
        assert not plan.trace.notes  # the tier ran: no fallback hop

    @pytest.mark.parametrize("backend", ["scalar", "fused", "mp"])
    def test_distributed(self, op, backend):
        plan = compile_clause(clause(op), DECOMPS)
        m = run_distributed(plan, env(), backend=backend, processes=2)
        assert (bits(m.collect("A")) == want(op)).all()
        assert not plan.trace.notes

    def test_emitted_spmd_source(self, op):
        plan = compile_clause(clause(op), DECOMPS)
        src, factory = compile_distributed(plan)
        assert f"_{'minimum' if op == 'min' else 'maximum'}(" in src
        m = DistributedMachine(plan.pmax)
        e = env()
        for name, dec in DECOMPS.items():
            m.place(name, e[name], dec)
        m.run(factory)
        assert (bits(m.collect("A")) == want(op)).all()

    def test_emitted_shared_source(self, op):
        plan = compile_clause(clause(op), DECOMPS)
        _, phase = compile_shared(plan)
        m = SharedMachine(plan.pmax, copy_env(env()))
        m.run_phase(lambda p: phase(p, m.env))
        assert (bits(m.env["A"]) == want(op)).all()
