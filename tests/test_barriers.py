"""Tests for barrier elimination (paper §2.9, footnote 1).

The element-by-element enumeration that used to *be* the analysis lives
here as the oracle: ``oracle_*`` walk every index through
``writers_of``/``proc_of``; ``repro.codegen.barriers`` must reach the
same verdicts in the region key algebra without ever doing so.
"""

from dataclasses import dataclass
from typing import Dict, Set, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.cacheinfo import cache_stats, clear_all_caches
from repro.codegen import compile_clause
from repro.codegen.barriers import (
    barrier_removable,
    has_cross_processor_overlap,
    plan_barriers,
    run_program_shared,
)
from repro.core import (
    PAR,
    SEQ,
    AffineF,
    Clause,
    IndexSet,
    Program,
    Ref,
    SeparableMap,
    copy_env,
    evaluate_program,
)
from repro.core.ifunc import ConstantF, ModularF
from repro.decomp import Block, BlockScatter, Replicated, Scatter
from repro.pipeline import compile_plan, compile_program
from repro.pipeline.ir import AccessIR, PlanIR

# ---------------------------------------------------------------------------
# the oracle: the old (exact, O(n)) element-map analysis
# ---------------------------------------------------------------------------

Elem = Tuple[str, int]


@dataclass
class AccessMaps:
    """Which (array, element) each clause touches, and from which
    processor (owner of the touching iteration)."""

    writes: Dict[Elem, Set[int]]
    reads: Dict[Elem, Set[int]]


def oracle_access_maps(clause, decomps) -> AccessMaps:
    plan = compile_clause(clause, decomps)
    writes: Dict[Elem, Set[int]] = {}
    reads: Dict[Elem, Set[int]] = {}
    imin, imax = plan.loop_bounds[0]
    for i in range(imin, imax + 1):
        owners = plan.writers_of((i,))
        w_elem = (plan.write_name, plan.write.funcs[0](i))
        writes.setdefault(w_elem, set()).update(owners)
        for read in plan.reads:
            r_elem = (read.name, read.funcs[0](i))
            reads.setdefault(r_elem, set()).update(owners)
    return AccessMaps(writes, reads)


def oracle_overlap(clause, decomps) -> bool:
    maps = oracle_access_maps(clause, decomps)
    for elem, writers in maps.writes.items():
        if len(writers) > 1:
            return True
        readers = maps.reads.get(elem)
        if readers and readers - writers:
            return True
    return False


def oracle_phase_conflict(m1: AccessMaps, m2: AccessMaps) -> bool:
    for elem, writers in m1.writes.items():
        for other in (m2.reads.get(elem), m2.writes.get(elem)):
            if other and other - writers:
                return True
    for elem, writers2 in m2.writes.items():
        readers1 = m1.reads.get(elem)
        if readers1 and readers1 - writers2:
            return True
    return False


def oracle_removable(c1, c2, decomps) -> bool:
    if c1.ordering is not PAR or c2.ordering is not PAR:
        return False
    if oracle_overlap(c1, decomps) or oracle_overlap(c2, decomps):
        return False
    return not oracle_phase_conflict(oracle_access_maps(c1, decomps),
                                     oracle_access_maps(c2, decomps))


def oracle_pass_note(c1, c2, decomps) -> str:
    """What the `eliminate-barriers` pass said when it enumerated."""
    try:
        removable = oracle_removable(c1, c2, decomps)
    except (KeyError, ValueError) as exc:
        return f"analysis unavailable ({exc}); barrier kept"
    if removable:
        return (f"barrier before {c2.name!r} eliminated: "
                "no cross-processor write/read overlap")
    return f"barrier before {c2.name!r} kept"


N, PMAX = 24, 4


def cl(write, read, shift=0, n=N, ordering=PAR, lo=0, hi=None):
    if hi is None:
        hi = n - 1 - max(shift, 0)
    return Clause(
        domain=IndexSet.range1d(lo, hi),
        lhs=Ref(write, SeparableMap([AffineF(1, 0)])),
        rhs=Ref(read, SeparableMap([AffineF(1, shift)])) + 1,
        ordering=ordering,
    )


def env_for(seed=0):
    rng = np.random.default_rng(seed)
    return {k: rng.random(N) for k in "ABCD"}


BLOCKS = {k: Block(N, PMAX) for k in "ABCD"}


class TestAnalysis:
    def test_access_maps(self):
        maps = oracle_access_maps(cl("A", "B"), BLOCKS)
        assert ("A", 0) in maps.writes
        assert ("B", 0) in maps.reads
        # aligned: iteration i owned by block owner of i, reads B[i] of
        # the same owner
        assert maps.writes[("A", 5)] == maps.reads[("B", 5)]

    def test_aligned_pipeline_barrier_removable(self):
        # A := B+1 ; C := A+1 — same decomposition, identity accesses:
        # every datum stays on its processor
        assert barrier_removable(cl("A", "B"), cl("C", "A"), BLOCKS)

    def test_shifted_flow_needs_barrier(self):
        # C[i] := A[i+1]: block-boundary elements flow across processors
        assert not barrier_removable(cl("A", "B"), cl("C", "A", shift=1),
                                     BLOCKS)

    def test_independent_arrays_removable(self):
        assert barrier_removable(cl("A", "B"), cl("C", "D"), BLOCKS)

    def test_mixed_decomposition_flow_needs_barrier(self):
        decomps = dict(BLOCKS)
        decomps["C"] = Scatter(N, PMAX)
        # writer of C[i] is i mod pmax; reads A[i] owned by i div b
        assert not barrier_removable(cl("A", "B"), cl("C", "A"), decomps)

    def test_anti_dependence_needs_barrier(self):
        # clause 1 reads A[i+1]; clause 2 overwrites A — cross-processor
        # anti dependence at block boundaries
        c1 = cl("B", "A", shift=1)
        c2 = cl("A", "C")
        assert not barrier_removable(c1, c2, BLOCKS)

    def test_seq_clause_never_fused(self):
        assert not barrier_removable(cl("A", "B", ordering=SEQ),
                                     cl("C", "A"), BLOCKS)

    def test_intra_clause_overlap_blocks_fusion(self):
        # A[i] := A[i+1] has intra-clause cross-processor overlap: even
        # with an unrelated successor the fusion is unsafe
        c1 = cl("A", "A", shift=1)
        assert has_cross_processor_overlap(c1, BLOCKS)
        assert not barrier_removable(c1, cl("C", "D"), BLOCKS)

    def test_plan_barriers_shape(self):
        prog = Program([cl("A", "B"), cl("C", "A"), cl("D", "C", shift=1)])
        flags = plan_barriers(prog, BLOCKS)
        assert flags == [False, True, True]  # final barrier always kept


class TestFusedExecution:
    def test_fused_program_matches_reference(self):
        prog = Program([cl("A", "B"), cl("C", "A"), cl("D", "C")])
        env0 = env_for()
        ref = evaluate_program(prog, copy_env(env0))
        m, barriers = run_program_shared(prog, BLOCKS, copy_env(env0))
        for name in "ACD":
            assert np.allclose(m.env[name], ref[name]), name
        assert barriers == 1  # three phases fused into one

    def test_unfusable_program_keeps_barriers(self):
        prog = Program([cl("A", "B"), cl("C", "A", shift=1)])
        env0 = env_for()
        ref = evaluate_program(prog, copy_env(env0))
        m, barriers = run_program_shared(prog, BLOCKS, copy_env(env0))
        assert np.allclose(m.env["C"], ref["C"])
        assert barriers == 2

    def test_elimination_disabled(self):
        prog = Program([cl("A", "B"), cl("C", "A")])
        env0 = env_for()
        _m, barriers = run_program_shared(prog, BLOCKS, copy_env(env0),
                                          eliminate_barriers=False)
        assert barriers == 2

    def test_mixed_fusable_and_not(self):
        prog = Program([
            cl("A", "B"),            # fuses with next
            cl("C", "A"),            # barrier after (next reads shifted C)
            cl("D", "C", shift=1),
        ])
        env0 = env_for(3)
        ref = evaluate_program(prog, copy_env(env0))
        m, barriers = run_program_shared(prog, BLOCKS, copy_env(env0))
        for name in "ACD":
            assert np.allclose(m.env[name], ref[name])
        assert barriers == 2

    def test_seq_clause_runs_inside_program(self):
        rec = Clause(
            IndexSet.range1d(1, N - 1),
            Ref("A", SeparableMap([AffineF(1, 0)])),
            Ref("A", SeparableMap([AffineF(1, -1)])),
            ordering=SEQ,
        )
        prog = Program([cl("A", "B"), rec])
        env0 = env_for(4)
        ref = evaluate_program(prog, copy_env(env0))
        m, _ = run_program_shared(prog, BLOCKS, copy_env(env0))
        assert np.allclose(m.env["A"], ref["A"])


# ---------------------------------------------------------------------------
# the proof against the oracle
# ---------------------------------------------------------------------------

def _decomposition(kind: str, n: int, pmax: int):
    if kind == "block":
        return Block(n, pmax)
    if kind == "scatter":
        return Scatter(n, pmax)
    if kind == "bs-one-course":
        return BlockScatter(n, pmax, -(-n // pmax) + 1)
    if kind == "replicated":
        return Replicated(n, pmax)
    return BlockScatter(n, pmax, int(kind[2:]))  # bs2 / bs4 / bs8


DEC_KINDS = ("block", "scatter", "bs-one-course", "bs2", "bs4", "bs8",
             "replicated")


@st.composite
def access_funcs(draw, n: int):
    """identity, shift±, stride 2, reverse, rotate (modular), constant."""
    kind = draw(st.sampled_from(
        ("identity", "shift", "stride", "reverse", "rotate", "constant")))
    if kind == "identity":
        return AffineF(1, 0)
    if kind == "shift":
        return AffineF(1, draw(st.sampled_from((-3, -2, -1, 1, 2, 3))))
    if kind == "stride":
        return AffineF(2, draw(st.integers(0, 1)))
    if kind == "reverse":
        return AffineF(-1, n - 1)
    if kind == "rotate":
        return ModularF(AffineF(1, draw(st.integers(1, n - 1))), n)
    return ConstantF(draw(st.integers(0, n - 1)))


@st.composite
def clauses_1d(draw, n: int, name: str):
    """One 1-D clause over the arrays A, B, C whose write stays inside
    the array (an iteration writing outside it belongs to no
    ``Modify_p``: no node runs it, BND001 reports it)."""
    wf = draw(access_funcs(n))
    valid = wf.preimage(0, n - 1, 0, n - 1)
    assume(valid)
    vlo, vhi = valid[0]
    lo = draw(st.integers(vlo, vhi))
    hi = draw(st.integers(lo, vhi))
    write = draw(st.sampled_from("ABC"))

    def ref(array):
        return Ref(array, SeparableMap([draw(access_funcs(n))]))

    rhs = ref(draw(st.sampled_from("ABC")))
    if draw(st.booleans()):
        rhs = rhs + ref(draw(st.sampled_from("ABC")))
    guard = None
    if draw(st.integers(0, 3)) == 0:  # a guard reading the written array
        guard = ref(write) > 0
    ordering = SEQ if draw(st.integers(0, 7)) == 0 else PAR
    return Clause(IndexSet.range1d(lo, hi),
                  Ref(write, SeparableMap([wf])), rhs,
                  ordering=ordering, guard=guard, name=name)


@st.composite
def clause_pairs(draw):
    n = draw(st.integers(8, 40))
    pmax = draw(st.integers(1, 5))
    decomps = {x: _decomposition(draw(st.sampled_from(DEC_KINDS)), n, pmax)
               for x in "ABC"}
    return (draw(clauses_1d(n, "first")), draw(clauses_1d(n, "second")),
            decomps)


def pass_note(c1, c2, decomps) -> str:
    ir = compile_plan(c1, decomps, successor=c2)
    (note,) = ir.trace.record("eliminate-barriers").notes
    assert ir.barrier_needed == ("eliminated" not in note)
    return note


class TestProofAgainstOracle:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])
    @given(clause_pairs())
    def test_barrier_proof_matches_the_element_oracle(self, pair):
        c1, c2, decomps = pair
        for c in (c1, c2):
            assert has_cross_processor_overlap(c, decomps) \
                == oracle_overlap(c, decomps), c
        assert barrier_removable(c1, c2, decomps) \
            == oracle_removable(c1, c2, decomps)
        assert pass_note(c1, c2, decomps) == oracle_pass_note(c1, c2, decomps)

    @pytest.mark.parametrize("broken", [
        pytest.param(lambda d: d.pop("D"), id="missing-decomposition"),
        pytest.param(lambda d: d.update(D=Block(N, 2)), id="pmax-mismatch"),
    ])
    def test_refusals_match_the_oracle(self, broken):
        """A successor outside the canonical form: same "analysis
        unavailable" note, barrier kept."""
        decomps = dict(BLOCKS)
        broken(decomps)
        c1, c2 = cl("A", "B"), cl("C", "D")
        note = pass_note(c1, c2, decomps)
        assert note.startswith("analysis unavailable (")
        assert note == oracle_pass_note(c1, c2, decomps)
        with pytest.raises((KeyError, ValueError)):
            barrier_removable(c1, c2, decomps)

    def test_one_pipeline_run_and_one_cache_entry_per_clause(self):
        """The proof compiles nothing: no successor-less twin of the
        first clause in the plan cache or the kernel cache."""
        clear_all_caches()
        prog = Program([cl("A", "B"), cl("C", "A", shift=1)])
        compile_program(prog, BLOCKS)
        stats = cache_stats()
        assert stats["plan"]["misses"] == stats["kernel"]["misses"] \
            == len(prog.clauses)
        assert stats["plan"]["hits"] == stats["kernel"]["hits"] == 0
        assert stats["plan"]["size"] == stats["kernel"]["size"] \
            == len(prog.clauses)

    @pytest.mark.parametrize("dec", [Block, Scatter])
    def test_million_element_chain_never_walks_elements(self, dec,
                                                        monkeypatch):
        """Complexity guard: a two-clause 3-point chain at n = 2^20
        compiles with the per-element placement functions off limits."""
        def forbidden(*_a, **_k):
            raise AssertionError("the compile path walked an element")

        monkeypatch.setattr(AccessIR, "proc_of", forbidden)
        monkeypatch.setattr(PlanIR, "writers_of", forbidden)
        n = 1 << 20
        decomps = {x: dec(n, PMAX) for x in "UVW"}

        def three_point(write, read):
            def at(c):
                return Ref(read, SeparableMap([AffineF(1, c)]))

            return Clause(IndexSet.range1d(1, n - 2),
                          Ref(write, SeparableMap([AffineF(1, 0)])),
                          at(-1) + at(0) + at(1), name=write)

        clear_all_caches()
        pir = compile_program(
            Program([three_point("V", "U"), three_point("W", "V")]), decomps)
        assert pir.barrier_flags() == [True, True]  # V flows across nodes
        assert not barrier_removable(three_point("V", "U"),
                                     three_point("W", "V"), decomps)
        assert barrier_removable(three_point("V", "U"), cl("W", "V", n=n),
                                 decomps)

