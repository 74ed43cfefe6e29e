"""Tests for the pass-based compilation pipeline and its introspection
surface: PlanIR, PassManager, PipelineTrace, the CLI ``--explain`` dump,
vector slice views, and the structured deadlock diagnosis."""

import numpy as np
import pytest

from repro.cli import main, parse_decomposition
from repro.codegen.ndplan import compile_clause_nd
from repro.codegen.nddist import compile_clause_nd_dist
from repro.codegen.plan import compile_clause
from repro.core import (
    PAR,
    SEQ,
    AffineF,
    Bounds,
    Clause,
    IdentityF,
    IndexSet,
    Ref,
    SeparableMap,
)
from repro.core.rewrite import derivation_forms, derive_spmd
from repro.decomp import Block, GridDecomposition, Replicated, Scatter
from repro.machine import DeadlockError, Network, Recv, run_spmd
from repro.pipeline import (
    PassManager,
    PipelineTrace,
    PlanIR,
    compile_plan,
    default_passes,
)
from repro.sets.enumerators import Enumeration, Segment

N, P = 24, 4

PASS_ORDER = [
    "substitute-views",
    "optimize-membership",
    "split-interior",
    "eliminate-barriers",
    "recognize-reduction",
    "license-doacross",
    "lower-kernels",
]


def simple_clause(ordering=PAR):
    return Clause(
        IndexSet(Bounds((0,), (N - 2,))),
        Ref("A", SeparableMap([AffineF(1, 1)])),
        Ref("B", SeparableMap([IdentityF()])) * 2,
        ordering=ordering,
    )


def block_decomps():
    return {"A": Block(N, P), "B": Block(N, P)}


class TestPassManager:
    def test_default_pass_order(self):
        assert [p.name for p in default_passes()] == PASS_ORDER

    def test_trace_has_one_record_per_pass(self):
        ir = compile_plan(simple_clause(), block_decomps())
        assert ir.trace.names() == PASS_ORDER

    def test_records_carry_paper_sections_and_timings(self):
        ir = compile_plan(simple_clause(), block_decomps())
        for rec in ir.trace.records:
            assert rec.paper.startswith("§")
            assert rec.wall_ms >= 0.0
            assert rec.before != "" and rec.after != ""

    def test_substitute_and_optimize_rewrite(self):
        ir = compile_plan(simple_clause(), block_decomps())
        by = ir.trace.by_name()
        # write + one read substituted, both get non-naive Table I rules
        assert by["substitute-views"].rewrites == 2
        assert by["optimize-membership"].rewrites == 2

    def test_pretty_lists_passes_in_order(self):
        ir = compile_plan(simple_clause(), block_decomps())
        out = ir.trace.pretty()
        positions = [out.index(name) for name in PASS_ORDER]
        assert positions == sorted(positions)
        assert "rewrites=" in out

    def test_custom_pass_list(self):
        mgr = PassManager(default_passes()[:2])
        ir = PlanIR(clause=simple_clause(), decomps=block_decomps())
        mgr.run(ir)
        assert ir.trace.names() == PASS_ORDER[:2]
        assert ir.write is not None

    def test_summary_is_json_friendly(self):
        import json

        ir = compile_plan(simple_clause(), block_decomps())
        payload = json.dumps(ir.trace.summary())
        assert "substitute-views" in payload


class TestModularKeys:
    ROTATE = "for i := 0 to 63 par do\n    A[i] := B[(i + 6) mod 64] * 2;\nod;\n"
    SPEC = ("distribute A[64](blockscatter(4)) on 4;\n"
            "distribute B[64](blockscatter(4)) on 4;\n")

    def test_rotate_source_translated_twice_hits_every_cache(self):
        """``B[(i + c) mod n]`` keys structurally: a second translation of
        the same text is one hit on every cache, not a recompile."""
        from repro.analysis import verify_program
        from repro.cacheinfo import cache_stats, clear_all_caches
        from repro.decomp.spec import parse_spec
        from repro.frontend import translate_source
        from repro.pipeline import compile_program

        clear_all_caches()
        stats = []
        for _ in range(2):
            pir = compile_program(translate_source(self.ROTATE, {}),
                                  parse_spec(self.SPEC))
            assert verify_program(pir).ok
            stats.append(cache_stats())
        cold, warm = stats
        assert warm["program"]["hits"] == cold["program"]["hits"] + 1
        assert warm["verify"]["hits"] == cold["verify"]["hits"] + 1
        for cache in ("plan", "kernel", "program", "table1", "verify"):
            assert warm[cache]["misses"] == cold[cache]["misses"], cache

    def test_modular_functions_compare_by_structure(self):
        from repro.core.ifunc import ConstantF, ModularF, MonotoneF

        assert ModularF(AffineF(1, 6), 64) == ModularF(AffineF(1, 6), 64)
        assert hash(ModularF(AffineF(1, 6), 64)) == \
            hash(ModularF(AffineF(1, 6), 64))
        assert ModularF(AffineF(1, 6), 64) != ModularF(AffineF(1, 6), 64, 1)
        assert ModularF(ConstantF(3), 8) != ModularF(AffineF(1, 3), 8)
        g = MonotoneF(lambda i: 2 * i)
        assert ModularF(g, 8) == ModularF(g, 8)  # one opaque g: identity
        assert ModularF(g, 8) != ModularF(MonotoneF(lambda i: 2 * i), 8)


class TestUnifiedEntryPoints:
    def test_1d_plan_carries_ir_and_trace(self):
        plan = compile_clause(simple_clause(), block_decomps())
        assert plan.ir is not None
        assert plan.trace is not None
        assert plan.trace.names() == PASS_ORDER

    def test_nd_plan_carries_ir_and_trace(self):
        g = GridDecomposition([Block(8, 2), Block(8, 2)])
        cl = Clause(
            IndexSet(Bounds((0, 0), (7, 7))),
            Ref("T", SeparableMap([IdentityF(), IdentityF()])),
            Ref("T", SeparableMap([IdentityF(), IdentityF()])) * 2,
        )
        for compiled in (compile_clause_nd(cl, {"T": g}),
                         compile_clause_nd_dist(cl, {"T": g})):
            assert compiled.ir is not None
            assert compiled.trace.names() == PASS_ORDER

    def test_1d_is_a_degenerate_one_axis_grid(self):
        ir = compile_plan(simple_clause(), block_decomps())
        assert ir.ndim == 1
        assert ir.write.grid_coord(2) == (2,)

    def test_barrier_pass_uses_successor(self):
        # same independent clause twice: no datum crosses processors,
        # the barrier between them is removable
        c1, c2 = simple_clause(), simple_clause()
        ir = compile_plan(c1, block_decomps(), successor=c2)
        assert ir.barrier_needed is False
        ir_last = compile_plan(c1, block_decomps())
        assert ir_last.barrier_needed is True

    def test_derivation_reuses_pass_records(self):
        cl, dec = simple_clause(), block_decomps()
        trace = derive_spmd(cl, dec).as_trace()
        assert isinstance(trace, PipelineTrace)
        assert trace.total_rewrites() == len(trace.records) > 0
        forms = derivation_forms(cl, dec)
        assert [r.name for r in trace.records] == [rule for rule, _ in forms]
        # the substitute-views pass embeds the same §2.6 forms as notes
        ir = compile_plan(cl, dec)
        notes = " ".join(ir.trace.by_name()["substitute-views"].notes)
        assert "canonical (Eq. 1)" in notes


class TestSliceViews:
    def test_segment_as_slice_and_index_array(self):
        s = Segment(3, 11, 2)
        assert np.array_equal(s.index_array(), np.arange(3, 12, 2))

    def test_enumeration_index_array_is_sorted(self):
        e = Enumeration.table("x", [10, 1], [14, 5], 2)
        arr = e.index_array()
        assert arr.dtype == np.int64
        assert np.array_equal(arr, np.sort(arr))
        assert set(arr.tolist()) == set(e.indices())

    def test_empty_enumeration(self):
        e = Enumeration.table("x")
        assert e.index_array().size == 0


class TestDeadlockDiagnosis:
    def _deadlock(self):
        net = Network(2)

        def node0():
            yield Recv(1, "never")

        def node1():
            net.send(1, 0, "wrong-tag", 1.5)
            yield Recv(0, "never")

        with pytest.raises(DeadlockError) as ei:
            run_spmd([node0(), node1()], net)
        return ei.value

    def test_blocked_nodes_are_structured(self):
        err = self._deadlock()
        assert err.blocked == {0: ("recv", 1, "never"),
                               1: ("recv", 0, "never")}

    def test_undelivered_messages_listed(self):
        err = self._deadlock()
        assert err.undelivered == [(1, 0, "wrong-tag")]
        assert "wrong-tag" in str(err)

    def test_network_pending_messages(self):
        net = Network(3)
        net.send(0, 1, "a", 1.0)
        net.send(2, 1, "b", 2.0)
        assert net.pending_messages() == [(0, 1, "a"), (2, 1, "b")]


class TestCLI:
    def _write(self, tmp_path):
        f = tmp_path / "prog.pal"
        f.write_text(
            "for i := 0 to 19 par do\n"
            "    A[i] := B[(i + 6) mod 20] * 2;\n"
            "od\n"
        )
        return str(f)

    def test_explain_prints_ordered_pass_list(self, tmp_path, capsys):
        rc = main(["compile", self._write(tmp_path), "--pmax", "4",
                   "--array", "A=block:20", "--array", "B=scatter:20",
                   "--explain"])
        assert rc == 0
        out = capsys.readouterr().out
        positions = [out.index(name) for name in PASS_ORDER]
        assert positions == sorted(positions)
        assert "rewrites=" in out

    def test_compile_vector_backend_emits_numpy(self, tmp_path, capsys):
        """``compile --backend fused`` prints what runs — the NumPy kernel
        source — and then the scalar §2.10 node program."""
        rc = main(["compile", self._write(tmp_path), "--pmax", "4",
                   "--array", "A=block:20", "--array", "B=scatter:20",
                   "--backend", "fused"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "_vec_index" not in out and "vector-form" not in out
        kernel, template = out.index("def _rhs(_i, _r, _s):"), \
            out.index("def node_program(ctx, RT):")
        assert kernel < out.index("# scalar §2.10 node program") < template

    def test_run_vector_backend(self, tmp_path, capsys):
        rc = main(["run", self._write(tmp_path), "--pmax", "4",
                   "--array", "A=block:20", "--array", "B=scatter:20",
                   "--backend", "fused"])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_run_shared_vector_backend(self, tmp_path, capsys):
        rc = main(["run", self._write(tmp_path), "--pmax", "4",
                   "--array", "A=block:20", "--array", "B=scatter:20",
                   "--shared", "--backend", "fused"])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    @pytest.mark.parametrize("spec", [
        "A=block",            # missing size
        "A=block:zz",         # non-integer size
        "Ablock:20",          # missing '='
        "A=bs:20",            # bs without block size
        "A=warp:20",          # unknown kind
        "A=block:20:2",       # constructor rejects b too small
        "A=bs:20:0",          # constructor rejects b < 1
        "A=single:20:9",      # owner out of range for pmax=4
    ])
    def test_malformed_array_specs_exit_one_line(self, spec):
        with pytest.raises(SystemExit) as ei:
            parse_decomposition(spec, 4)
        msg = str(ei.value)
        assert "\n" not in msg and msg  # one-line diagnosis
