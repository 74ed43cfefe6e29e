"""The compile-time clause verifier: diagnostic codes, runtime
cross-checks, the `repro check` CLI, and the verify-plan pass."""

import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    CODES,
    Diagnostic,
    verify_clause,
)
from repro.cli import main
from repro.codegen import compile_clause, run_distributed
from repro.codegen.barriers import has_cross_processor_overlap
from repro.core import (
    PAR,
    SEQ,
    AffineF,
    Clause,
    ConstantF,
    IndexSet,
    Ref,
    SeparableMap,
    copy_env,
    evaluate_clause,
)
from repro.core.ifunc import IFunc
from repro.decomp import (
    Block,
    BlockScatter,
    Replicated,
    Scatter,
    SingleOwner,
)
from repro.machine.scheduler import DeadlockError
from repro.pipeline import clear_plan_cache, compile_plan


def ident(name):
    return Ref(name, SeparableMap([AffineF(1, 0)]))


def shifted(name, c):
    return Ref(name, SeparableMap([AffineF(1, c)]))


def clause1d(lo, hi, lhs, rhs, ordering=PAR, guard=None):
    return Clause(IndexSet.range1d(lo, hi), lhs, rhs,
                  ordering=ordering, guard=guard)


N, P = 24, 4


def verify(clause, decomps):
    clear_plan_cache()
    return verify_clause(clause, decomps)


# ---------------------------------------------------------------------------
# seeded-bad fixtures: each one yields exactly its documented code
# ---------------------------------------------------------------------------

class TestSeededBad:
    def test_constant_write_race001(self):
        cl = clause1d(0, N - 1, Ref("A", SeparableMap([ConstantF(3)])),
                      ident("B"))
        report = verify(cl, {"A": Block(N, P), "B": Block(N, P)})
        assert report.has("RACE001") and not report.ok
        (diag,) = report.find("RACE001")
        assert diag.witnesses  # concrete colliding loop indices

    def test_carried_dependence_race003(self):
        # domain starts at 1 so bounds/comm are clean: the only defect
        # is the loop-carried read A[i-1] under // ordering
        cl = clause1d(1, N - 1, ident("A"), shifted("A", -1) + ident("B"))
        report = verify(cl, {"A": Block(N, P), "B": Block(N, P)})
        assert report.codes() == ["RACE003"]
        (diag,) = report.find("RACE003")
        assert len(diag.witnesses) >= 1

    def test_replicated_write_race002(self):
        cl = clause1d(0, N - 1, ident("A"), ident("B"))
        report = verify(cl, {"A": Replicated(N, P), "B": Block(N, P)})
        assert report.has("RACE002")

    def test_missing_send_comm001_and_bnd001(self):
        # B[i+1] at i = N-1 reads element N: out of bounds, no owner
        cl = clause1d(0, N - 1, ident("A"), shifted("B", 1))
        report = verify(cl, {"A": Block(N, P), "B": Block(N, P)})
        assert report.has("COMM001") and report.has("BND001")
        (diag,) = report.find("COMM001")
        assert "never completes" in diag.message

    def test_write_out_of_bounds_bnd002_comm003(self):
        cl = clause1d(0, N - 1, shifted("A", 1), ident("B"))
        report = verify(cl, {"A": Block(N, P), "B": Block(N, P)})
        assert report.has("BND002") and report.has("COMM003")

    def test_single_owner_lint(self):
        cl = clause1d(0, N - 1, ident("A"), ident("B"))
        report = verify(cl, {"A": SingleOwner(N, P, 0),
                             "B": SingleOwner(N, P, 0)})
        assert report.has("LINT001") and report.has("LINT002")
        assert report.ok  # lint findings are warnings, not errors

    def test_scattered_recurrence_lint003(self):
        cl = clause1d(1, N - 1, ident("A"),
                      shifted("A", -1) + ident("B"), ordering=SEQ)
        report = verify(cl, {"A": Scatter(N, P), "B": Scatter(N, P)})
        assert report.has("LINT003")

    def test_race004_not_raised_when_barrier_kept(self):
        # the racy clause forces the barrier to stay, so the pass-vs-
        # analyzer consistency check must NOT fire
        racy = clause1d(1, N - 1, ident("A"), shifted("A", -1))
        succ = clause1d(0, N - 1, ident("B"), ident("A"))
        decomps = {"A": Block(N, P), "B": Block(N, P)}
        clear_plan_cache()
        ir = compile_plan(racy, decomps, successor=succ, verify=True)
        assert ir.barrier_needed
        assert not ir.diagnostics.has("RACE004")

    def test_clean_clause_is_clean(self):
        cl = clause1d(0, N - 1, ident("Y"), ident("Y") + ident("X"))
        report = verify(cl, {"Y": Block(N, P), "X": Scatter(N, P)})
        assert report.ok and not report.diagnostics


# ---------------------------------------------------------------------------
# COMM witnesses: the key algebra against an element walk
# ---------------------------------------------------------------------------

class _Opaque(IFunc):
    """No closed form at all: no preimage, no monotonicity."""

    name = "h(i)"

    def __call__(self, i):
        return i + (i * i) % 5 - 2


def _comm_oracle(ir, acc):
    """The COMM001 / COMM003 witness dicts by walking every index."""
    w, wf, g = ir.write, ir.write.funcs[0], acc.funcs[0]
    dom = range(ir.loop_bounds[0][0], ir.loop_bounds[0][1] + 1)
    recv, send = {}, {}
    for p in range(ir.pmax):
        modify = [i for i in dom
                  if 0 <= wf(i) < w.dec.n and w.dec.proc(wf(i)) == p]
        reside = [i for i in dom
                  if 0 <= g(i) < acc.dec.n and acc.dec.proc(g(i)) == p]
        lost = [i for i in modify if not 0 <= g(i) < acc.dec.n]
        stray = [i for i in reside if not 0 <= wf(i) < w.dec.n]
        recv.update({p: lost[:4]} if lost else {})
        send.update({p: stray[:4]} if stray else {})
    return recv, send


class TestCommWitnesses:
    @pytest.mark.parametrize("lhs, rhs, wdec, rdec", [
        (ident("A"), shifted("B", 1), Block(N, P), Block(N, P)),
        (shifted("A", 1), ident("B"), Block(N, P), Block(N, P)),
        (ident("A"), shifted("B", 1), Scatter(N, P), Scatter(N, P)),
        (ident("A"), shifted("B", -2), Block(N, P), Scatter(N, P)),
        (ident("A"), Ref("B", SeparableMap([AffineF(2, 1)])),
         Scatter(N, P), BlockScatter(N, P, 2)),
        (ident("A"), Ref("B", SeparableMap([AffineF(-1, N - 3)])),
         BlockScatter(N, P, 2), Scatter(N, P)),
        (Ref("A", SeparableMap([AffineF(3, -4)])), shifted("B", 3),
         Scatter(N, P), Block(N, P)),
        (ident("A"), Ref("B", SeparableMap([_Opaque()])),
         Block(N, P), Scatter(N, P)),
    ])
    def test_witnesses_match_the_element_walk(self, lhs, rhs, wdec, rdec):
        clear_plan_cache()
        ir = compile_plan(clause1d(0, N - 1, lhs, rhs),
                          {"A": wdec, "B": rdec}, verify=True)
        recv, send = _comm_oracle(ir, ir.reads[0])
        assert recv or send  # every case here is seeded bad
        for code, want in (("COMM001", recv), ("COMM003", send)):
            got = ir.diagnostics.find(code)
            assert (got[0].witnesses if got else {}) == want

    def test_strided_witness_at_2_22_in_bounded_time(self):
        # one out-of-range read at the very end of a scattered Modify_p:
        # found by key arithmetic, not by walking the strided segment
        n = 1 << 22
        cl = clause1d(0, n - 1, ident("A"), shifted("B", 1))
        t0 = time.perf_counter()
        report = verify(cl, {"A": Scatter(n, P), "B": Scatter(n, P)})
        assert time.perf_counter() - t0 < 2.0
        (diag,) = report.find("COMM001")
        assert diag.witnesses == {3: [n - 1]}

    def test_opaque_function_over_budget_is_chk001(self, monkeypatch):
        from repro.analysis import comm

        monkeypatch.setattr(comm, "ENUM_BUDGET", N // 2)
        cl = clause1d(0, N - 1, ident("A"),
                      Ref("B", SeparableMap([_Opaque()])))
        report = verify(cl, {"A": Block(N, P), "B": Scatter(N, P)})
        (diag,) = [d for d in report.find("CHK001")
                   if "communication" in d.message]
        assert diag.message == ("communication analysis incomplete: "
                                "bounds scan of h(i)")
        assert not report.has("COMM001")


# ---------------------------------------------------------------------------
# diagnostics plumbing
# ---------------------------------------------------------------------------

class TestDiagnostics:
    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="unknown diagnostic code"):
            Diagnostic(code="BOGUS9", message="x")

    def test_report_sorted_errors_first(self):
        cl = clause1d(0, N - 1, ident("A"), shifted("A", -1))
        report = verify(cl, {"A": Scatter(N, P)})
        ranks = [d.severity.value for d in report.diagnostics]
        assert ranks == sorted(ranks, key=["error", "warning", "info"].index)

    def test_every_code_documented(self):
        for code, text in CODES.items():
            assert len(text) > 10, code

    def test_summary_round_trips_through_json(self):
        cl = clause1d(0, N - 1, ident("A"), shifted("B", 1))
        report = verify(cl, {"A": Block(N, P), "B": Block(N, P)})
        data = json.loads(json.dumps(report.summary()))
        assert data["errors"] == len(report.errors())
        assert {d["code"] for d in data["diagnostics"]} == set(report.codes())


# ---------------------------------------------------------------------------
# the verify-plan pass and the plan cache
# ---------------------------------------------------------------------------

class TestVerifyPass:
    def test_trace_records_verify_pass(self):
        cl = clause1d(0, N - 1, ident("A"), ident("B"))
        clear_plan_cache()
        ir = compile_plan(cl, {"A": Block(N, P), "B": Block(N, P)},
                          verify=True)
        rec = ir.trace.record("verify-plan")
        assert rec is not None
        assert "no findings" in " ".join(rec.notes)
        assert ir.diagnostics is not None and ir.diagnostics.ok

    def test_cache_hit_reuses_verdict(self):
        cl = clause1d(0, N - 1, ident("A"), shifted("B", 1))
        decomps = {"A": Block(N, P), "B": Block(N, P)}
        clear_plan_cache()
        first = compile_plan(cl, decomps, verify=True)
        again = compile_plan(cl, decomps, verify=True)
        assert again.trace.cache_hit
        assert again.diagnostics is not None
        assert again.diagnostics.codes() == first.diagnostics.codes()

    def test_unverified_hit_gets_verified_on_demand(self):
        cl = clause1d(0, N - 1, ident("A"), shifted("B", 1))
        decomps = {"A": Block(N, P), "B": Block(N, P)}
        clear_plan_cache()
        plain = compile_plan(cl, decomps)
        assert plain.diagnostics is None
        verified = compile_plan(cl, decomps, verify=True)
        assert verified.trace.cache_hit and verified.diagnostics.has("COMM001")
        # ... and the verdict sticks to the cached entry
        third = compile_plan(cl, decomps, verify=True)
        assert third.diagnostics.has("COMM001")

    def test_explain_surfaces_diagnostics(self):
        cl = clause1d(0, N - 1, ident("A"), shifted("B", 1))
        clear_plan_cache()
        ir = compile_plan(cl, {"A": Block(N, P), "B": Block(N, P)},
                          verify=True)
        text = ir.trace.pretty()
        assert "COMM001" in text and "verify" in text


# ---------------------------------------------------------------------------
# runtime cross-check: static verdicts against actual machine behavior
# ---------------------------------------------------------------------------

class TestRuntimeCrossCheck:
    def _deadlock(self, backend):
        cl = clause1d(0, N - 1, ident("A"), shifted("B", 1))
        decomps = {"A": Block(N, P), "B": Block(N, P)}
        clear_plan_cache()
        plan = compile_clause(cl, decomps)
        env = {"A": np.zeros(N), "B": np.arange(float(N))}
        with pytest.raises(DeadlockError) as exc:
            run_distributed(plan, env, backend=backend)
        return exc.value

    def test_deadlock_message_names_static_code(self):
        err = self._deadlock("scalar")
        assert "COMM001" in str(err)
        assert "repro check" in str(err)

    def test_deadlock_blocked_deterministically_ordered(self):
        err = self._deadlock("scalar")
        assert list(err.blocked) == sorted(err.blocked)
        assert err.undelivered == sorted(
            err.undelivered, key=lambda m: (m[1], m[0], repr(m[2])))

    def test_clean_clause_runs_without_deadlock(self):
        cl = clause1d(0, N - 1, ident("A"), ident("B"))
        decomps = {"A": Block(N, P), "B": Scatter(N, P)}
        report = verify(cl, decomps)
        assert report.ok
        plan = compile_clause(cl, decomps)
        env = {"A": np.zeros(N), "B": np.arange(float(N))}
        machine = run_distributed(plan, env)
        assert np.array_equal(machine.collect("A"), env["B"])


# ---------------------------------------------------------------------------
# property: certified race-free => bit-identical // vs sequential
# ---------------------------------------------------------------------------

def _dec(kind, n, pmax):
    return {"block": Block, "scatter": Scatter}[kind](n, pmax)


class TestIndependenceCertificate:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(4, 32),
        pmax=st.integers(1, 6),
        wkind=st.sampled_from(["block", "scatter"]),
        rkind=st.sampled_from(["block", "scatter"]),
        c=st.integers(-2, 2),
        seed=st.integers(0, 5),
    )
    def test_certified_clause_matches_sequential(
            self, n, pmax, wkind, rkind, c, seed):
        lo, hi = max(0, -c), min(n - 1, n - 1 - c)
        cl = clause1d(lo, hi, ident("Y"), shifted("X", c) * 0.5 + 1.0)
        decomps = {"Y": _dec(wkind, n, pmax), "X": _dec(rkind, n, pmax)}
        # no read of the written array: nothing for the barrier proof to
        # meet — its empty case is the certificate
        assert not has_cross_processor_overlap(cl, decomps)
        report = verify(cl, decomps)
        assert not [d for d in report.errors()
                    if d.code.startswith("RACE")]
        rng = np.random.default_rng(seed)
        env0 = {"Y": rng.random(n), "X": rng.random(n)}
        ref = evaluate_clause(cl, copy_env(env0))
        plan = compile_clause(cl, decomps)
        for backend in ("scalar", "fused"):
            machine = run_distributed(plan, copy_env(env0), backend=backend)
            got = machine.collect("Y")
            assert np.array_equal(got, ref["Y"]), backend

    def test_certificate_denied_on_self_read(self):
        cl = clause1d(1, N - 1, ident("A"), shifted("A", -1))
        assert has_cross_processor_overlap(cl, {"A": Block(N, P)})

    def test_certificate_denied_on_replicated_write(self):
        cl = clause1d(0, N - 1, ident("A"), ident("B"))
        assert has_cross_processor_overlap(
            cl, {"A": Replicated(N, P), "B": Block(N, P)})


# ---------------------------------------------------------------------------
# doacross consults the analyzer
# ---------------------------------------------------------------------------

class TestDoacrossConsult:
    def test_out_of_bounds_recurrence_rejected(self):
        from repro.codegen.doacross import compile_doacross

        # domain starts at 0: A[-1] is read on the first iteration
        cl = clause1d(0, N - 1, ident("A"),
                      shifted("A", -1) + ident("B"), ordering=SEQ)
        clear_plan_cache()
        with pytest.raises(ValueError, match="BND001"):
            compile_doacross(cl, {"A": Block(N, P), "B": Block(N, P)})

    def test_valid_recurrence_still_compiles(self):
        from repro.codegen.doacross import compile_doacross

        cl = clause1d(1, N - 1, ident("A"),
                      shifted("A", -1) + ident("B"), ordering=SEQ)
        clear_plan_cache()
        plan = compile_doacross(cl, {"A": Block(N, P), "B": Block(N, P)})
        assert plan.max_distance == 1


# ---------------------------------------------------------------------------
# CLI: repro check / --cache-stats
# ---------------------------------------------------------------------------

GOOD = """
for i := 0 to 23 par do
    Y[i] := Y[i] + 2 * X[i];
od;
"""

BAD = """
for i := 0 to 23 par do
    A[i] := B[i + 1];
od;
"""


@pytest.fixture
def good_prog(tmp_path):
    p = tmp_path / "good.pal"
    p.write_text(GOOD)
    return str(p)


@pytest.fixture
def bad_prog(tmp_path):
    p = tmp_path / "bad.pal"
    p.write_text(BAD)
    return str(p)


class TestCheckCLI:
    def test_clean_program_exits_zero(self, good_prog, capsys):
        rc = main(["check", good_prog, "--array", "Y=block:24",
                   "--array", "X=scatter:24"])
        out = capsys.readouterr().out
        assert rc == 0 and "clean" in out

    def test_bad_program_exits_nonzero_with_codes(self, bad_prog, capsys):
        rc = main(["check", bad_prog, "--array", "A=block:24",
                   "--array", "B=block:24"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "COMM001" in out and "BND001" in out

    def test_json_output_parses(self, bad_prog, capsys):
        rc = main(["check", bad_prog, "--array", "A=block:24",
                   "--array", "B=block:24", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert rc == 1 and data["ok"] is False and data["errors"] >= 1
        codes = {d["code"] for c in data["clauses"]
                 for d in c["diagnostics"]}
        assert "COMM001" in codes

    def test_strict_promotes_warnings(self, good_prog, capsys):
        args = ["check", good_prog, "--array", "Y=single:24:0",
                "--array", "X=single:24:0"]
        assert main(args) == 0  # lint findings are warnings
        assert main(args + ["--strict"]) == 1

    def test_uncompilable_clause_reports_chk001(self, good_prog, capsys):
        # no decomposition for X -> compile fails, checker reports it
        rc = main(["check", good_prog, "--array", "Y=block:24"])
        out = capsys.readouterr().out
        assert rc == 1 and "CHK001" in out

    def test_cache_stats_flag(self, good_prog, capsys):
        clear_plan_cache()
        rc = main(["compile", good_prog, "--array", "Y=block:24",
                   "--array", "X=scatter:24", "--cache-stats"])
        out = capsys.readouterr().out
        assert rc == 0
        # one unified block covering all three compile-time caches
        assert "caches:" in out
        assert "plan:" in out and "table1:" in out and "kernel:" in out
        assert "misses=1" in out
        (parse_line,) = [ln for ln in out.splitlines()
                         if ln.strip().startswith("parse:")]
        assert "hits=" in parse_line and "bytes=" in parse_line


# ---------------------------------------------------------------------------
# shipped example programs all verify clean under --strict
# ---------------------------------------------------------------------------

def _example_programs():
    import pathlib

    root = pathlib.Path(__file__).parent.parent / "examples" / "programs"
    return sorted(root.glob("*.pal"))


@pytest.mark.parametrize("pal", _example_programs(),
                         ids=lambda p: p.stem)
def test_example_programs_check_clean(pal, capsys):
    spec = pal.with_suffix(".spec")
    assert spec.exists(), f"{pal.name} has no sibling .spec"
    rc = main(["check", str(pal), "--spec", str(spec), "--strict"])
    out = capsys.readouterr().out
    assert rc == 0, out
