"""The whole-program layer: ``compile_program`` and its inter-clause
passes (redistribution elision, clause fusion, time-loop pipelining),
the program cache, and ``run_program`` across backends.

Backend bit-identity sweeps over programs live in
``tests/test_pipeline_equiv.py::TestAllBackendsAgree``; this module
tests the program machinery itself.
"""

import numpy as np
import pytest

from repro.codegen.barriers import run_program_shared
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
from repro.core.clause import Program
from repro.decomp import Block, Scatter
from repro.pipeline import (
    clear_plan_cache,
    compile_program,
    evaluate_program_reference,
    program_cache,
    program_cache_info,
    run_program,
)

from .conftest import mpi_stub

N, P = 32, 4


def _ref(name, a=1, b=0):
    f = IdentityF() if (a, b) == (1, 0) else AffineF(a, b)
    return Ref(name, SeparableMap([f]))


def scale_clause(dst, src, lo=0, hi=N - 1, name=None):
    return Clause(IndexSet(Bounds((lo,), (hi,))), _ref(dst),
                  _ref(src) * 2.0, name=name or f"{dst}={src}*2")


def stencil_clause(dst, src, name=None):
    return Clause(
        IndexSet(Bounds((1,), (N - 2,))), _ref(dst),
        (_ref(src, 1, -1) + _ref(src, 1, 1)) * 0.5,
        name=name or f"{dst}=avg({src})",
    )


def env_for(names, seed=0):
    rng = np.random.default_rng(seed)
    return {n: rng.random(N) for n in names}


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_plan_cache()
    yield
    clear_plan_cache()


class TestCompileProgram:
    def test_agreeing_boundary_elides_and_fuses(self):
        program = Program([scale_clause("B", "A"), scale_clause("C", "B")])
        decomps = {n: Block(N, P) for n in "ABC"}
        pir = compile_program(program, decomps)
        assert [name for _, name in pir.elided] == ["B", "C"]
        assert pir.redistributions == []
        assert pir.groups == [[0, 1]]          # one fused phase
        assert pir.barrier_flags() == [False, True]
        assert pir.barriers_per_step() == 1

    def test_fusion_note_carries_race_verdict(self):
        program = Program([scale_clause("B", "A"), scale_clause("C", "B")])
        pir = compile_program(program, {n: Block(N, P) for n in "ABC"})
        rec = next(r for r in pir.trace.records if r.name == "fuse-clauses")
        note = "\n".join(rec.notes)
        assert "RACE verdict" in note and "RACE-clean" in note

    def test_redistribution_boundary_is_kept(self):
        program = Program([scale_clause("B", "A"), scale_clause("C", "B")])
        decs = [{n: Block(N, P) for n in "ABC"},
                {"B": Scatter(N, P), "C": Scatter(N, P)}]
        pir = compile_program(program, decs)
        assert any(name == "B" for _, name, _ in pir.redistributions)
        # placement disagreement blocks the barrier proof: barrier kept
        assert pir.groups == [[0], [1]]

    def test_cross_processor_flow_keeps_barrier(self):
        # clause 2 reads B at i±1: the flow crosses processors
        program = Program([scale_clause("B", "A"), stencil_clause("C", "B")])
        pir = compile_program(program, {n: Block(N, P) for n in "ABC"})
        assert pir.elided and not pir.redistributions
        assert pir.groups == [[0], [1]]
        rec = next(r for r in pir.trace.records if r.name == "fuse-clauses")
        assert any("barrier kept" in n for n in rec.notes)

    def test_seq_clause_never_fuses(self):
        seq = Clause(IndexSet(Bounds((1,), (N - 1,))), _ref("B"),
                     _ref("B", 1, -1) * 0.5, ordering=SEQ, name="rec")
        program = Program([seq, scale_clause("C", "B")])
        pir = compile_program(program, {n: Block(N, P) for n in "BC"})
        assert pir.groups == [[0], [1]]
        # the • singleton group runs serially: no barrier counted for it
        assert pir.barriers_per_step() == 1

    def test_fuse_and_elide_can_be_disabled(self):
        program = Program([scale_clause("B", "A"), scale_clause("C", "B")])
        decomps = {n: Block(N, P) for n in "ABC"}
        pir = compile_program(program, decomps, fuse=False, elide=False)
        assert pir.groups == [[0], [1]]
        assert pir.elided == []
        assert pir.redistributions  # every boundary re-places

    def test_empty_program_refused(self):
        with pytest.raises(ValueError):
            compile_program(Program([]), {})

    def test_duplicate_swap_name_refused(self):
        program = Program([scale_clause("B", "A")])
        with pytest.raises(ValueError, match="two swap pairs"):
            compile_program(program, {n: Block(N, P) for n in "AB"},
                            repeat=2, swap=(("A", "B"), ("B", "C")))

    def test_wrong_length_decomps_list_refused(self):
        program = Program([scale_clause("B", "A")])
        with pytest.raises(ValueError, match="per-clause"):
            compile_program(program, [{n: Block(N, P) for n in "AB"}] * 2)


class TestTimeLoopPipelining:
    def _loop(self, **kw):
        program = Program([stencil_clause("V", "U")])
        decomps = {"U": Block(N, P), "V": Block(N, P)}
        return compile_program(program, decomps, repeat=5,
                               swap=(("U", "V"),), **kw)

    def test_compatible_swap_pipelines(self):
        pir = self._loop()
        assert pir.pipelined, pir.pipeline_reason
        # wrap-around step boundary elides via the swap rename
        assert ("step", "U") in pir.elided
        rec = next(r for r in pir.trace.records
                   if r.name == "elide-redistribution")
        assert any("via swap" in n for n in rec.notes)

    def test_mismatched_swap_placement_blocks_pipelining(self):
        program = Program([stencil_clause("V", "U")])
        decomps = {"U": Block(N, P), "V": Scatter(N, P)}
        pir = compile_program(program, decomps, repeat=5,
                              swap=(("U", "V"),))
        assert not pir.pipelined
        assert "placements differ" in pir.pipeline_reason

    def test_surviving_redistribution_blocks_pipelining(self):
        program = Program([scale_clause("B", "A"), scale_clause("C", "B")])
        decs = [{n: Block(N, P) for n in "ABC"},
                {"B": Scatter(N, P), "C": Scatter(N, P)}]
        pir = compile_program(program, decs, repeat=3)
        assert not pir.pipelined
        assert "survive elision" in pir.pipeline_reason

    def test_repeat_one_is_not_a_time_loop(self):
        program = Program([stencil_clause("V", "U")])
        pir = compile_program(program, {"U": Block(N, P), "V": Block(N, P)})
        assert not pir.pipelined
        assert "repeat=1" in pir.pipeline_reason


class TestProgramCache:
    def _compile(self):
        program = Program([scale_clause("B", "A"), scale_clause("C", "B")])
        return compile_program(program, {n: Block(N, P) for n in "ABC"})

    def test_structural_recompile_hits(self):
        pir1 = self._compile()
        assert not pir1.trace.cache_hit
        pir2 = self._compile()
        assert pir2.trace.cache_hit
        assert program_cache_info()["hits"] == 1
        # the clone re-anchors onto the caller's fresh clause objects
        assert pir2.steps[0].clause is not pir1.steps[0].clause
        assert pir2.groups == pir1.groups

    def test_hit_reanchors_every_step(self):
        """A hit is re-anchored step by step onto the caller's objects:
        clause, write and read refs, successor, and decompositions."""
        self._compile()
        program = Program([scale_clause("B", "A"), scale_clause("C", "B")])
        decomps = {n: Block(N, P) for n in "ABC"}
        pir = compile_program(program, decomps)
        assert pir.trace.cache_hit
        clauses = list(program)
        assert pir.steps[0].ir.successor is not None  # 1-D, same placement
        for k, st in enumerate(pir.steps):
            clause = clauses[k]
            assert st.clause is clause and st.ir.clause is clause
            assert st.ir.write.ref is clause.lhs
            assert [acc.ref for acc in st.ir.reads] == clause.reads()
            assert all(acc.ref is r
                       for acc, r in zip(st.ir.reads, clause.reads()))
            want = clauses[k + 1] if k + 1 < len(clauses) else None
            assert st.ir.successor is want
            for name, dec in st.decomps.items():
                assert dec is decomps[name]
                assert st.ir.decomps[name] is decomps[name]

    def test_options_are_part_of_the_key(self):
        program = Program([scale_clause("B", "A"), scale_clause("C", "B")])
        decomps = {n: Block(N, P) for n in "ABC"}
        compile_program(program, decomps)
        pir = compile_program(program, decomps, fuse=False)
        assert not pir.trace.cache_hit

    def test_cached_program_still_executes(self):
        self._compile()
        pir = self._compile()
        assert pir.trace.cache_hit
        env0 = env_for("ABC")
        ref = evaluate_program_reference(pir, env0)
        m, _ = run_program(pir, copy_env(env0), backend="fused")
        assert np.array_equal(m.env["C"], ref["C"])

    def test_eviction_counter(self):
        from repro.pipeline.program import ProgramCache

        cache = ProgramCache(maxsize=1)
        cache.store(("k1",), self._compile())
        cache.store(("k2",), self._compile())
        assert cache.info()["evictions"] == 1
        assert cache.info()["size"] == 1

    def test_env_override_bounds_cache(self, monkeypatch):
        from repro.pipeline import cache as cache_mod
        from repro.pipeline.program import ProgramCache

        def maxsize():
            return cache_mod._env_number("REPRO_CACHE_SIZE", 64)

        monkeypatch.setenv("REPRO_CACHE_SIZE", "7")
        assert maxsize() == 7
        assert ProgramCache().maxsize == 7
        monkeypatch.setenv("REPRO_CACHE_SIZE", "bogus")
        assert maxsize() == 64
        monkeypatch.setenv("REPRO_CACHE_SIZE", "0")
        assert maxsize() == 1  # clamped to >= 1

    def test_clear_plan_cache_clears_program_cache(self):
        self._compile()
        assert program_cache_info()["size"] == 1
        clear_plan_cache()
        info = program_cache_info()
        assert info["size"] == 0 and info["hits"] == 0
        assert info["evictions"] == 0


class TestRunProgram:
    def test_multi_step_swap_matches_reference(self):
        program = Program([stencil_clause("V", "U")])
        decomps = {"U": Block(N, P), "V": Block(N, P)}
        env0 = env_for("UV", seed=3)
        for repeat in (1, 2, 5):
            pir = compile_program(program, decomps, repeat=repeat,
                                  swap=(("U", "V"),))
            ref = evaluate_program_reference(pir, env0)
            for backend in ("scalar", "fused"):
                m, barriers = run_program(pir, copy_env(env0),
                                          backend=backend)
                assert barriers == repeat
                for name in "UV":
                    assert np.array_equal(m.env[name], ref[name]), \
                        (backend, repeat, name)

    def test_mp_pipelined_loop_matches_reference(self):
        """On both real-process launches, including the odd-``repeat``
        copy-back: pool workers leave a swapped pair in each other's
        segments, MPI ranks swap their dicts."""
        program = Program([stencil_clause("V", "U")])
        decomps = {"U": Block(N, P), "V": Block(N, P)}
        env0 = env_for("UV", seed=4)
        with mpi_stub():
            for backend in ("mp", "mpi"):
                for repeat in (2, 5):       # even and odd swap parity
                    pir = compile_program(program, decomps, repeat=repeat,
                                          swap=(("U", "V"),))
                    assert pir.pipelined
                    ref = evaluate_program_reference(pir, env0)
                    m, barriers = run_program(pir, copy_env(env0),
                                              backend=backend, processes=2)
                    assert barriers == repeat
                    assert not any("fell back" in note
                                   or "unavailable" in note
                                   for note in pir.trace.notes), backend
                    for name in "UV":
                        assert np.array_equal(m.env[name], ref[name]), \
                            (backend, repeat, name)

    def test_fused_group_runs_group_kernels(self):
        program = Program([scale_clause("B", "A"), scale_clause("C", "B")])
        decomps = {n: Block(N, P) for n in "ABC"}
        pir = compile_program(program, decomps)
        assert pir.groups == [[0, 1]]
        env0 = env_for("ABC", seed=5)
        ref = evaluate_program_reference(pir, env0)
        m, barriers = run_program(pir, copy_env(env0), backend="fused")
        assert barriers == 1
        assert np.array_equal(m.env["C"], ref["C"])

    def test_unknown_backend_refused(self):
        from repro.backends import UnknownBackendError

        program = Program([scale_clause("B", "A")])
        pir = compile_program(program, {n: Block(N, P) for n in "AB"})
        with pytest.raises(UnknownBackendError):
            run_program(pir, env_for("AB"), backend="warp")

    def test_mp_unpipelined_loop_falls_back(self):
        # U:Scatter vs V:Block blocks pipelining; mp must still be
        # correct by driving clauses per step
        program = Program([stencil_clause("V", "U")])
        decomps = {"U": Block(N, P), "V": Scatter(N, P)}
        env0 = env_for("UV", seed=6)
        pir = compile_program(program, decomps, repeat=3,
                              swap=(("U", "V"),))
        assert not pir.pipelined
        ref = evaluate_program_reference(pir, env0)
        m, _ = run_program(pir, copy_env(env0), backend="mp", processes=2)
        for name in "UV":
            assert np.array_equal(m.env[name], ref[name]), name
        assert any("driving clauses individually" in n
                   for n in pir.trace.notes)

    def test_seq_clause_runs_scalar_inside_program(self):
        seq = Clause(IndexSet(Bounds((1,), (N - 1,))), _ref("B"),
                     _ref("B", 1, -1) * 0.5 + _ref("A"), ordering=SEQ,
                     name="rec")
        program = Program([seq, scale_clause("C", "B")])
        decomps = {n: Block(N, P) for n in "ABC"}
        pir = compile_program(program, decomps)
        env0 = env_for("ABC", seed=7)
        ref = evaluate_program_reference(pir, env0)
        for backend in ("scalar", "fused", "mp"):
            m, barriers = run_program(pir, copy_env(env0), backend=backend,
                                      processes=2)
            assert barriers == 1  # the • group is serial, uncounted
            assert np.array_equal(m.env["C"], ref["C"]), backend


class TestLegacyWrapper:
    def test_run_program_shared_matches_program_layer(self):
        program = Program([scale_clause("B", "A"), stencil_clause("C", "B")])
        decomps = {n: Block(N, P) for n in "ABC"}
        env0 = env_for("ABC", seed=8)
        pir = compile_program(program, decomps)
        ref = evaluate_program_reference(pir, env0)
        m, barriers = run_program_shared(program, decomps, copy_env(env0))
        assert barriers == 2
        assert np.array_equal(m.env["C"], ref["C"])

    def test_eliminate_barriers_false_keeps_all(self):
        program = Program([scale_clause("B", "A"), scale_clause("C", "B")])
        decomps = {n: Block(N, P) for n in "ABC"}
        env0 = env_for("ABC", seed=9)
        _, fused = run_program_shared(program, decomps, copy_env(env0))
        _, kept = run_program_shared(program, decomps, copy_env(env0),
                                     eliminate_barriers=False)
        assert fused == 1 and kept == 2
