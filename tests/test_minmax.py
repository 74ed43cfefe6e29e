"""Every operator follows NumPy's rule on every tier, bit for bit.

The kernels compute each operator with its NumPy spelling, so NumPy's
rule is the one every tier follows (``core/expr.OPS``): a NaN operand of
``min``/``max`` wins and a tie is the second operand
(``np.minimum(0.0, -0.0)`` is ``-0.0``); ``and``/``or``/``not`` give
booleans; a zero divisor in ``/``, ``div`` and ``mod`` gives NumPy's
inf, NaN or 0.  Python's own ``min``/``max`` keep the first operand of a
tie and drop a NaN that comes second, its ``and`` returns an operand and
its division raises, so a scalar path spelled with them disagrees with
the kernels — and ``np.array_equal`` cannot see a signed-zero difference
and never calls two NaNs equal.  Every op of the table is compared here
by its bit pattern on every tier that evaluates a clause: every operand
pair over {NaN, ±inf, ±0, 5e-324, ±1, 3, -2.5} in both orders, and
Python-scalar operands (``1 div (i - 3)``) for the divisions.
"""

import itertools

import numpy as np
import pytest

from repro.codegen import compile_clause, compile_distributed, compile_shared
from repro.codegen.dist_tmpl import run_distributed
from repro.codegen.nddist import compile_clause_nd_dist
from repro.codegen.shared_tmpl import run_shared
from repro.core import (
    BinOp,
    Clause,
    Const,
    IdentityF,
    IndexSet,
    LoopIndex,
    Bounds,
    Ref,
    SeparableMap,
    UnOp,
    copy_env,
    evaluate_clause,
)
from repro.core.expr import OPS, UNARY_OPS
from repro.core.view import ProjectedMap
from repro.decomp import Block, GridDecomposition, Scatter
from repro.machine import DistributedMachine, SharedMachine

VALUES = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1.0, -1.0, 3.0, -2.5]
PAIRS = list(itertools.product(VALUES, repeat=2))  # both orders
N = len(PAIRS)
LANES = np.arange(N)

#: the oracle, independent of the table: each op's NumPy ufunc
BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply,
          "/": np.true_divide, "div": np.floor_divide, "mod": np.remainder,
          "min": np.minimum, "max": np.maximum,
          ">": np.greater, ">=": np.greater_equal, "<": np.less,
          "<=": np.less_equal, "=": np.equal, "!=": np.not_equal,
          "and": np.logical_and, "or": np.logical_or}
UNARY = {"-": np.negative, "not": np.logical_not, "abs": np.absolute}
#: unary cases by id ("-" is also a binary op)
UNARY_CASES = {"neg": "-", "not": "not", "abs": "abs"}
#: Python-int operands: the divisor is 0 at i = 3
SCALAR_CASES = {f"1 {op} (i - 3)": op for op in ("/", "div", "mod")}
CASES = [*BINARY, *UNARY_CASES, *SCALAR_CASES]


def bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def env() -> dict:
    return {"A": np.zeros(N),
            "B": np.array([a for a, _ in PAIRS]),
            "C": np.array([b for _, b in PAIRS])}


def ref(name: str) -> Ref:
    return Ref(name, SeparableMap([IdentityF()]))


def rhs(case: str):
    if case in UNARY_CASES:
        return UnOp(UNARY_CASES[case], ref("B"))
    if case in SCALAR_CASES:
        return BinOp(SCALAR_CASES[case], Const(1),
                     BinOp("-", LoopIndex(0), Const(3)))
    return BinOp(case, ref("B"), ref("C"))


def clause(case: str) -> Clause:
    return Clause(IndexSet.range1d(0, N - 1), ref("A"), rhs(case),
                  name=case)


def operands(case: str) -> tuple:
    """The operand vectors of *case*, Python scalars where the clause
    has them."""
    e = env()
    if case in UNARY_CASES:
        return (list(e["B"]),)
    if case in SCALAR_CASES:
        return [1] * N, [int(i) - 3 for i in LANES]
    return list(e["B"]), list(e["C"])


def want(case: str) -> np.ndarray:
    fn = UNARY[UNARY_CASES[case]] if case in UNARY_CASES \
        else BINARY[SCALAR_CASES.get(case, case)]
    args = [np.array(v) for v in operands(case)]
    with np.errstate(all="ignore"):
        return bits(fn(*args))


#: A and C blocked, B scattered: every node both receives and sends
DECOMPS = {"A": Block(N, 4), "B": Scatter(N, 4), "C": Block(N, 4)}


def test_every_op_of_the_table_is_covered():
    assert set(BINARY) == set(OPS)
    assert set(UNARY) == set(UNARY_OPS)


class TestNumPyRule:
    @pytest.mark.parametrize("op", CASES)
    def test_scalar_op_is_numpy_on_every_pair(self, op):
        table = UNARY_OPS[UNARY_CASES[op]] if op in UNARY_CASES \
            else OPS[SCALAR_CASES.get(op, op)]
        with np.errstate(all="ignore"):  # as every tier's call site
            got = [table.fn(*args) for args in zip(*operands(op))]
        assert (bits(got) == want(op)).all()

    @pytest.mark.parametrize("op", ["min", "max"])
    def test_python_builtin_disagrees(self, op):
        # the disagreement this pins down: a NaN second operand, and a
        # signed-zero tie
        builtin = {"min": min, "max": max}[op]
        got = bits([builtin(a, b) for a, b in PAIRS])
        assert (got != want(op)).any()

    @pytest.mark.parametrize("op", CASES)
    def test_evaluator(self, op):
        out = evaluate_clause(clause(op), env())["A"]
        assert (bits(out) == want(op)).all()

    @pytest.mark.parametrize("op", CASES)
    @pytest.mark.parametrize("backend", ["scalar", "fused", "mp"])
    def test_shared(self, op, backend):
        plan = compile_clause(clause(op), DECOMPS)
        m = run_shared(plan, env(), backend=backend, processes=2)
        assert (bits(m.env["A"]) == want(op)).all()
        assert not plan.trace.notes  # the tier ran: no fallback hop

    @pytest.mark.parametrize("op", CASES)
    @pytest.mark.parametrize("backend", ["scalar", "fused", "mp"])
    def test_distributed(self, op, backend):
        plan = compile_clause(clause(op), DECOMPS)
        m = run_distributed(plan, env(), backend=backend, processes=2)
        assert (bits(m.collect("A")) == want(op)).all()
        assert not plan.trace.notes

    @pytest.mark.parametrize("op", CASES)
    def test_emitted_spmd_source(self, op):
        plan = compile_clause(clause(op), DECOMPS)
        _, factory = compile_distributed(plan)
        m = DistributedMachine(plan.pmax)
        e = env()
        for name, dec in DECOMPS.items():
            m.place(name, e[name], dec)
        m.run(factory)
        assert (bits(m.collect("A")) == want(op)).all()

    @pytest.mark.parametrize("op", CASES)
    def test_emitted_shared_source(self, op):
        plan = compile_clause(clause(op), DECOMPS)
        _, phase = compile_shared(plan)
        m = SharedMachine(plan.pmax, copy_env(env()))
        m.run_phase(lambda p: phase(p, m.env))
        assert (bits(m.env["A"]) == want(op)).all()


# ---------------------------------------------------------------------------
# the slot form: every op as a ufunc call into a scratch slot
# ---------------------------------------------------------------------------

#: a 2-D clause over every VALUES pair: U[i] varies along loop dim 0,
#: V[j] along dim 1 — each read a row broadcast over the other dim
M = len(VALUES)
GRID = GridDecomposition([Block(M, 2), Block(M, 2)])
SLOT_DECOMPS = {"A": GRID, "U": Scatter(M, 4), "V": Block(M, 4)}
SLOT_TIERS = [("shared", "fused"), ("dist", "fused"),
              ("shared", "mp"), ("dist", "mp")]


def uref(name: str, dim: int) -> Ref:
    return Ref(name, ProjectedMap([dim], [IdentityF()]))


def ij(d: int):
    return BinOp("-", LoopIndex(d), Const(3 + d))


def slot_expr(op: str, a, b):
    return UnOp(UNARY_CASES[op], a) if op in UNARY_CASES \
        else BinOp(op, a, b)


def slot_clause(op: str, shape: str) -> Clause:
    """*op* over one operand mix: ``bcast`` the two broadcast rows,
    ``int`` the int64 index grids (one divisor is 0 where i = 3),
    ``scalar`` a scalar-only subexpression (*op* over ``1 / 0`` and 2:
    no slot) against a row, ``guard`` the op as a guard whose mask must
    survive a body that needs slots of the same dtype and shape.  Each
    clause meets at most one NaN per element: NumPy's scalar math (the
    evaluator) and its array loops propagate different operands of two
    NaNs of opposite sign."""
    u, v = uref("U", 0), uref("V", 1)
    guard = None
    if shape == "bcast":
        rhs = slot_expr(op, BinOp("*", u, Const(1)), v)
    elif shape == "int":
        rhs = BinOp("+", slot_expr(op, ij(0), ij(1)), Const(0.5))
    elif shape == "scalar":
        inf = slot_expr(op, BinOp("/", Const(1), Const(0)), Const(2))
        row = BinOp("+", v, BinOp("-", Const(2), Const(5)))
        rhs = BinOp("+", inf, row) if op in UNARY_CASES \
            else slot_expr(op, inf, row)
    else:
        guard = slot_expr(op, u, v)
        rhs = BinOp("*", BinOp("-", u, v), BinOp("+", v, u))
    dom = IndexSet(Bounds((0, 0), (M - 1, M - 1)))
    return Clause(dom, Ref("A", SeparableMap([IdentityF(), IdentityF()])),
                  rhs, guard=guard, name=f"{op}:{shape}")


def slot_env() -> dict:
    return {"A": np.full((M, M), 7.0), "U": np.array(VALUES),
            "V": np.array(VALUES[::-1])}


class TestSlotForm:
    @pytest.mark.parametrize("shape", ["bcast", "int", "scalar", "guard"])
    @pytest.mark.parametrize("op", [*BINARY, *UNARY_CASES])
    def test_every_op_in_slots_is_the_evaluator(self, op, shape):
        cl = slot_clause(op, shape)
        with np.errstate(all="ignore"):
            want = bits(evaluate_clause(cl, slot_env())["A"])
        plan = compile_clause_nd_dist(cl, SLOT_DECOMPS)
        src = plan.ir.kernels.source
        assert "out=_s[" in src
        if shape == "scalar":  # scalar-only: a ufunc call, no slot
            assert "_np.true_divide(1, 0)" in src
        for entry, backend in SLOT_TIERS:
            run = run_shared if entry == "shared" else run_distributed
            with np.errstate(all="ignore"):
                m = run(plan, slot_env(), backend=backend, processes=2)
            got = m.env["A"] if entry == "shared" else m.collect("A")
            assert (bits(got) == want).all(), (entry, backend, src)
        assert not plan.trace.notes  # every tier ran: no fallback hop
