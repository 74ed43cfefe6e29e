"""Pass-trace text is rendered when it is read, and only then.

``PassManager.run`` keeps a value snapshot of the IR at every pass
boundary (:class:`~repro.pipeline.ir.PlanFacts`); its text is rendered
the first time ``PassRecord.before`` / ``after`` is read.  A compile
nobody explains therefore renders nothing — checked here on the
benchmark ledger's compile paths with the renderers patched to raise —
while ``repro compile --explain --verbose`` prints exactly what it
printed when every pass rendered eagerly (golden files under
``tests/golden/explain/``, timings masked).
"""

import pathlib
import re

import pytest

from benchmarks.ledger.compilecold import FAMILIES, KINDS, SIZES
from benchmarks.ledger.servemixed import two_clause_source
from benchmarks.ledger.stencils import e19_clause, grid2x2
from repro.analysis import verify_program
from repro.cacheinfo import clear_all_caches
from repro.cli import main, parse_decomposition
from repro.codegen.nddist import compile_clause_nd_dist
from repro.decomp.spec import parse_spec
from repro.frontend import translate_source
from repro.pipeline import compile_plan, compile_program
from repro.pipeline.ir import PlanFacts, PlanIR
from repro.serve.service import ReproService

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "explain"
PROGRAMS = sorted(p.stem for p in (ROOT / "examples" / "programs").glob("*.pal"))


@pytest.fixture
def no_render(monkeypatch):
    """Any pass-trace rendering raises while armed."""

    def boom(*args, **kwargs):
        raise AssertionError("a compile rendered pass-trace text")

    monkeypatch.setattr(PlanIR, "describe", boom)
    monkeypatch.setattr(PlanFacts, "text", property(boom))
    clear_all_caches()
    yield
    clear_all_caches()


class TestNothingRendersOnACompileMiss:
    def test_compile_cold_families(self, no_render):
        cell = 0
        for family in FAMILIES:
            for kind in KINDS:
                n, pmax = SIZES[cell % len(SIZES)]
                cell += 1
                source, spec = family(n, kind, pmax, 3)
                pir = compile_program(translate_source(source, {}),
                                      parse_spec(spec))
                assert verify_program(pir).ok
                assert all(r.snapshots[1] is not None
                           for st in pir.steps for r in st.ir.trace.records)

    def test_e19_pair(self, no_render):
        decomps = {"S": grid2x2(16), "T": grid2x2(16)}
        for src, dst in (("S", "T"), ("T", "S")):
            clause = e19_clause(16, src, dst)
            compile_clause_nd_dist(clause, decomps)
            hit = compile_plan(clause, decomps, verify=True)
            assert hit.trace.cache_hit and hit.diagnostics.ok

    def test_serve_mixed_program_verified(self, no_render):
        service = ReproService(workers=1)
        arrays = [f"{x}=block:2048" for x in "ABC"]
        for k in (3, 4):  # each program never seen, then hot
            for _ in range(2):
                result = service._do_compile({
                    "program": two_clause_source(k), "arrays": arrays,
                    "params": {"n": 2048}, "pmax": 4, "verify": True})
                assert all(c["diagnostics"]["ok"] for c in result["clauses"])

    def test_verified_plan_cache_hit(self, no_render):
        # a hit on an entry compiled unverified is verified on demand
        # (`_verify_plan_hit` runs the verify-plan pass on the clone)
        program = list(translate_source(two_clause_source(5), {"n": 64}))
        decomps = dict(parse_decomposition(f"{x}=block:64", 4)
                       for x in "ABC")
        cold = compile_plan(program[0], decomps, successor=program[1])
        assert cold.diagnostics is None
        hit = compile_plan(program[0], decomps, successor=program[1],
                           verify=True)
        assert hit.trace.cache_hit and hit.diagnostics.ok
        assert hit.trace.records[-1].name == "verify-plan"


def _masked(text: str) -> str:
    return re.sub(r"\d+\.\d+ ms", "<t> ms", text)


class TestExplainVerboseGolden:
    @pytest.mark.parametrize("name", PROGRAMS)
    def test_matches_the_eager_rendering(self, name, capsys):
        pal = ROOT / "examples" / "programs" / f"{name}.pal"
        clear_all_caches()
        assert main(["compile", str(pal), "--spec",
                     str(pal.with_suffix(".spec")), "--explain",
                     "--verbose"]) == 0
        out = capsys.readouterr().out
        assert _masked(out) == _masked((GOLDEN / f"{name}.txt").read_text())

    def test_snapshots_render_once_and_on_read(self):
        clear_all_caches()
        program = list(translate_source(two_clause_source(6), {"n": 64}))
        decomps = dict(parse_decomposition(f"{x}=block:64", 4)
                       for x in "ABC")
        ir = compile_plan(program[0], decomps)
        rec = ir.trace.record("optimize-membership")
        before, after = rec.snapshots
        assert "text" not in vars(before) and "text" not in vars(after)
        assert "[?]" in rec.before and "[block]" in rec.after
        assert rec.after is rec.after  # memoized on the snapshot
        # a pass that changes nothing shown keeps its input's snapshot
        lower = ir.trace.record("lower-kernels")
        assert lower.snapshots[0] is lower.snapshots[1]
        # the snapshot is a value: later IR changes do not reach it
        ir.barrier_needed = not ir.barrier_needed
        assert ir.describe() != ir.trace.records[-1].after
