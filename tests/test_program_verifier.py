"""Tests for the program-level verifier subsystem.

Every new diagnostic family gets a seeded-bad fixture — a program the
optimizer handles correctly, then tampered so the independent
re-derivation (``verify_program`` / ``check_schedule`` /
``sanitize_kernels``) must catch the now-false claim:

* ``PROG001``-``PROG003``: uncertified fusion / elision / pipelining;
* ``SCHED001``-``SCHED003``: unmatched messages, misplaced barriers,
  wait-for cycles — plus the deadlock-freedom certificate and its
  citation in runtime failures;
* ``KRN001``-``KRN003``: corrupted index arrays, kernel source audit,
  dead guards — and the ``--strict`` compile-time rejection on the mp
  path.

The acceptance property closes the loop: any program the verifier
certifies PROG-clean is bit-identical across the scalar, fused and mp
backends.
"""

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    Block,
    Clause,
    Const,
    IndexSet,
    LoopIndex,
    Ref,
    Scatter,
    WorkerCrashError,
    clear_plan_cache,
    copy_env,
    shutdown_runtime,
)
from repro.analysis import (
    ScheduleCertificate,
    audit_kernel_source,
    certificate_for,
    check_kernels_strict,
    check_schedule,
    cite_certificate,
    clear_verify_cache,
    sanitize_kernels,
    verify_cache_info,
    verify_program,
)
from repro.core import PAR, AffineF, Bounds, IdentityF, SeparableMap
from repro.machine.fused import FusedStrictError
from repro.pipeline.kernels import flavor_nodes
from repro.pipeline.region import Region
from repro.pipeline import (
    PassManager,
    clear_program_cache,
    compile_plan,
    compile_program,
    evaluate_program_reference,
    program_cache_info,
    run_program,
)
from repro.runtime import run_shared_mp
from repro.runtime.lowering import lower_dist, lower_shared

N, P = 24, 4


def ref(name, a=1, c=0):
    f = IdentityF() if (a, c) == (1, 0) else AffineF(a, c)
    return Ref(name, SeparableMap([f]))


def clause(lo, hi, lhs, rhs, ordering=PAR, guard=None, name=None):
    return Clause(IndexSet(Bounds((lo,), (hi,))), lhs, rhs,
                  ordering=ordering, guard=guard, name=name)


def block_env(*names, seed=0):
    rng = np.random.default_rng(seed)
    return {n: rng.random(N) for n in names}


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_plan_cache()
    clear_program_cache()
    clear_verify_cache()
    yield


@pytest.fixture(scope="module", autouse=True)
def runtime_teardown():
    yield
    shutdown_runtime()


def verify_prog(pir):
    return verify_program(pir, use_cache=False)


class TestProgFixtures:
    """Seeded-bad fixtures for the inter-clause cross-checks."""

    def _fused_pair(self):
        c1 = clause(1, N - 1, ref("A"), ref("B"))
        c2 = clause(1, N - 1, ref("C"), ref("A", c=-1))
        decs = {n: Block(N, P) for n in "ABC"}
        return compile_program([c1, c2], decs, verify=True)

    def test_prog001_uncertified_fusion(self):
        pir = self._fused_pair()
        assert pir.steps[0].barrier_after  # the pass correctly kept it
        pir.steps[0].barrier_after = False
        pir.groups = [[0, 1]]
        report = verify_prog(pir).program
        assert report.has("PROG001")
        assert any("dependence" in d.message for d in report.errors())
        # the schedule check independently sees the same violation
        assert report.has("SCHED002")

    def test_prog001_clean_fusion_certified(self):
        c1 = clause(0, N - 1, ref("V"), ref("U"))
        c2 = clause(0, N - 1, ref("W"), ref("V"))
        decs = {n: Block(N, P) for n in "UVW"}
        pir = compile_program([c1, c2], decs, verify=True)
        assert any(len(g) > 1 for g in pir.groups)
        verification = verify_prog(pir)
        assert verification.ok
        assert verification.program.has("PROG001") is False

    def test_prog002_uncertified_elision(self):
        c1 = clause(0, N - 1, ref("V"), ref("U"))
        c2 = clause(0, N - 1, ref("W"), ref("V"))
        decs = {n: Block(N, P) for n in "UVW"}
        pir = compile_program([c1, c2], decs, verify=True)
        assert ("0->1", "V") in list(pir.elided)
        pir.steps[1].decomps["V"] = Scatter(N, P)  # layouts disagree now
        report = verify_prog(pir).program
        assert report.has("PROG002")

    def test_prog003_uncertified_pipeline(self):
        c = clause(0, N - 1, ref("A"), ref("B"))
        decs = {"A": Block(N, P), "B": Scatter(N, P)}
        pir = compile_program([c], decs, repeat=2, swap=[("A", "B")],
                              verify=True)
        assert not pir.pipelined  # Block vs Scatter cannot swap
        pir.pipelined = True
        report = verify_prog(pir).program
        assert report.has("PROG003")

    def test_clean_program_stays_clean(self):
        c = clause(1, N - 2, ref("V"), ref("U", c=-1) + ref("U", c=1))
        decs = {"V": Block(N, P), "U": Block(N, P)}
        pir = compile_program([c], decs, repeat=3, swap=[("U", "V")],
                              verify=True)
        assert pir.pipelined
        verification = verify_prog(pir)
        assert verification.ok
        assert verification.certificate is not None
        assert verification.certificate.ok
        assert verification.summary()["certified_deadlock_free"]


class TestLargeArrays:
    """Placement agreement has no element budget: a 2**21-element Block
    time loop is certified (it once read PROG003 "no bounded element
    range" plus two CHK001 warnings)."""

    BIG = 1 << 21
    SOURCE = (f"for i := 1 to {BIG - 2} par do\n"
              "    V[i] := U[i - 1] + U[i + 1];\nod\n")
    SPEC = (f"distribute U[{BIG}](block) on {P};\n"
            f"distribute V[{BIG}](block) on {P};\n")

    def test_verify_program_certifies(self):
        c = clause(1, self.BIG - 2, ref("V"),
                   ref("U", c=-1) + ref("U", c=1))
        decs = {"U": Block(self.BIG, P), "V": Block(self.BIG, P)}
        pir = compile_program([c], decs, repeat=3, swap=(("U", "V"),))
        assert pir.pipelined
        verification = verify_prog(pir)
        assert verification.ok, verification.pretty()
        assert not verification.program.has("PROG003")
        assert not verification.program.has("CHK001")
        assert verification.certificate.ok

    def test_check_cli_strict(self, tmp_path, capsys):
        from repro.cli import main

        pal, spec = tmp_path / "big.pal", tmp_path / "big.spec"
        pal.write_text(self.SOURCE)
        spec.write_text(self.SPEC)
        rc = main(["check", str(pal), "--spec", str(spec), "--strict",
                   "--steps", "3", "--swap", "V:U"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "verify <program>: clean" in out


class TestSchedFixtures:
    """Static message-matching proof over lowered node programs."""

    def _dist_stencil(self):
        cl = clause(1, N - 2, ref("V"), ref("U", c=-1) + ref("U", c=1))
        ir = compile_plan(cl, {"V": Block(N, P), "U": Block(N, P)})
        return lower_dist(ir)

    def test_clean_schedule_certified(self):
        prog = self._dist_stencil()
        diags, cert = check_schedule([prog])
        assert not diags
        assert cert.ok
        assert "certified deadlock-free" in cert.describe()
        assert cert.messages > 0

    def test_sched001_and_sched003_muted_sends(self):
        prog = self._dist_stencil()
        mute = dataclasses.replace(prog.nodes[0], sends=())
        bad = dataclasses.replace(prog,
                                  nodes=[mute] + list(prog.nodes[1:]))
        diags, cert = check_schedule([bad])
        codes = {d.code for d in diags}
        assert "SCHED001" in codes
        assert "SCHED003" in codes
        assert not cert.ok
        assert "SCHED001" in cert.codes

    def test_sched002_missing_barrier(self):
        c1 = clause(1, N - 1, ref("A"), ref("B"))
        c2 = clause(1, N - 1, ref("C"), ref("A", c=-1))
        decs = {n: Block(N, P) for n in "ABC"}
        progs = [lower_shared(compile_plan(c1, decs)),
                 lower_shared(compile_plan(c2, decs))]
        diags, cert = check_schedule(progs, flags=[False, True])
        assert any(d.code == "SCHED002" for d in diags)
        assert not cert.ok
        # with the barrier in place, the same pair is certified
        diags, cert = check_schedule(progs, flags=[True, True])
        assert not any(d.code == "SCHED002" for d in diags)
        assert cert.ok

    def test_certificate_for(self):
        prog = self._dist_stencil()
        cert = certificate_for([prog])
        assert isinstance(cert, ScheduleCertificate)
        assert cert.ok

    def test_cite_certificate_contradiction(self):
        prog = self._dist_stencil()
        _, cert = check_schedule([prog])
        err = WorkerCrashError("worker 1 died", rank=1)
        cite_certificate(err, cert)
        assert "SCHED certificate" in str(err)
        assert "contradicts the certificate" in str(err)

    def test_cite_certificate_denied(self):
        prog = self._dist_stencil()
        mute = dataclasses.replace(prog.nodes[0], sends=())
        bad = dataclasses.replace(prog,
                                  nodes=[mute] + list(prog.nodes[1:]))
        _, cert = check_schedule([bad])
        err = WorkerCrashError("worker 1 died", rank=1)
        cite_certificate(err, cert)
        assert "SCHED certificate denied" in str(err)
        assert "SCHED001" in str(err)

    def test_cite_certificate_absent(self):
        err = WorkerCrashError("worker 1 died", rank=1)
        cite_certificate(err, None)
        assert "no SCHED certificate" in str(err)

    def test_mp_run_attaches_certificate(self):
        cl = clause(1, N - 2, ref("A"), ref("B", c=-1) + ref("B", c=1))
        ir = compile_plan(cl, {"A": Block(N, P), "B": Block(N, P)})
        env0 = block_env("A", "B")
        run_shared_mp(ir, copy_env(env0), processes=2)
        prog = lower_shared(ir, procs=2)  # cached: the program that ran
        assert prog.sched_cert is not None
        assert prog.sched_cert.ok

    def test_worker_crash_cites_certificate(self):
        cl = clause(1, N - 2, ref("A"), ref("B", c=-1) + ref("B", c=1))
        ir = compile_plan(cl, {"A": Block(N, P), "B": Block(N, P)})
        env0 = block_env("A", "B")
        with pytest.raises(WorkerCrashError) as err:
            run_shared_mp(ir, copy_env(env0), processes=2,
                          timeout=0.5, _fault=(1, 8.0))
        assert "SCHED certificate" in str(err.value)


class TestKrnFixtures:
    """Generated-artifact sanitizer: index arrays, source audit, guards."""

    def _plan(self):
        cl = clause(0, N - 1, ref("A"), ref("B"))
        return compile_plan(cl, {"A": Block(N, P), "B": Block(N, P)})

    def test_clean_kernels_sanitized(self):
        ir = self._plan()
        assert not [d for d in sanitize_kernels(ir) if d.is_error]

    def test_krn001_corrupt_gather_index(self):
        ir = self._plan()
        rd = flavor_nodes(ir, "union", procs=2)[0].reads[0]
        # a slice past B's extent [0, N): NumPy would clip it silently
        rd.mem = Region((slice(0, 100),), rd.mem.dims, rd.mem.shape)
        codes = {d.code for d in sanitize_kernels(ir)}
        assert "KRN001" in codes

    def test_krn001_strict_rejects_at_compile_time(self):
        """The acceptance fixture: a deliberately corrupted gather region
        is refused by ``--strict`` *before* any worker runs."""
        ir = self._plan()
        rd = flavor_nodes(ir, "union", procs=2)[0].reads[0]
        # a negative slice bound: NumPy would wrap it silently
        rd.mem = Region((slice(-N - 1, 6),), rd.mem.dims, rd.mem.shape)
        with pytest.raises(FusedStrictError, match="KRN001"):
            check_kernels_strict(ir, True)
        with pytest.raises(FusedStrictError, match="KRN001"):
            run_shared_mp(ir, block_env("A", "B"), strict=True,
                          processes=2)
        # non-strict keeps the report advisory
        check_kernels_strict(ir, False)

    @pytest.fixture
    def oob_lane_plans(self, monkeypatch):
        """Lane plans whose node 0 (the one block of the ``union``
        flavor) gathers past every buffer."""
        from repro.pipeline import kernels

        real = kernels._build_nodes

        def build(ir, local, dist, used, **union):
            nodes = real(ir, local, dist, used, **union)
            rd = nodes[0].reads[0]
            rd.mem = Region((slice(0, 100),), rd.mem.dims, rd.mem.shape)
            return nodes

        monkeypatch.setattr(kernels, "_build_nodes", build)

    @pytest.mark.parametrize("backend, entry", [
        ("fused", "shared"), ("fused", "dist"), ("mp", "dist")])
    def test_krn001_refuses_a_flavor_as_it_is_built(self, oob_lane_plans,
                                                    backend, entry):
        """Audit when built: the corrupt flavor never executes — the run
        falls back to ``scalar`` with the KRN001 note, bit-identical, and
        ``--strict`` refuses it with the same finding (``fused`` shared
        through its one-block ``union`` flavor, ``mp`` through its
        ``gdist`` flavor)."""
        from repro.codegen import compile_clause, run_distributed, run_shared
        from repro.core import copy_env, evaluate_clause

        cl = clause(1, N - 2, ref("A"), ref("B", c=-1) + ref("B", c=1))
        decs = {"A": Block(N, P), "B": Block(N, P)}
        env0 = block_env("A", "B")
        want = evaluate_clause(cl, copy_env(env0))["A"]
        run = run_shared if entry == "shared" else run_distributed
        with pytest.raises(FusedStrictError, match="KRN001") as refused:
            run(compile_clause(cl, decs), copy_env(env0), backend=backend,
                strict=True, processes=2)
        # mp refuses its gdist flavor, then falls back through fused's dist
        finding = str(refused.value).split("flagged ", 1)[1] \
            if backend == "fused" else "KRN001"
        clear_plan_cache()
        plan = compile_clause(cl, decs)
        m = run(plan, copy_env(env0), backend=backend, processes=2)
        got = m.env["A"] if entry == "shared" else m.collect("A")
        assert np.array_equal(got, want)
        assert plan.ir.kernels.built() == {}
        assert any("fell back to the scalar" in n and finding in n
                   for n in plan.trace.notes)

    def test_krn002_source_audit(self):
        ir = self._plan()
        assert not audit_kernel_source(ir.kernels.source)
        ir.kernels.source += "\nimport os\n_leak = os.environ\n"
        codes = {d.code for d in sanitize_kernels(ir)}
        assert "KRN002" in codes

    @pytest.mark.parametrize("line, why", [
        ("_np.add(_r[0], _r[1], out=_r[0])", "out=_r[0] is not a scratch slot"),
        ("_np.add(_r[0], _r[1], out=tmp)",
         "name 'tmp' outside the kernel whitelist"),
        ("_np.sin(_r[0], out=_s[0])",
         "_np.sin is not an emitted element-wise call"),
    ], ids=["store-into-read-row", "store-into-undeclared", "unspelled-ufunc"])
    def test_krn002_refuses_slot_form_escapes(self, line, why):
        """The slot form's whitelist comes from the operator table: a
        store into a read row or an undeclared name, or a ufunc the
        table does not spell, is rejected — and never compiled."""
        from repro.pipeline.kernels import KernelBuildError, compile_kernel

        src = f"def _rhs(_i, _r, _s):\n    {line}\n    return _s[0]\n"
        assert any(why in p for p in audit_kernel_source(src))
        with pytest.raises(KernelBuildError, match="KRN002"):
            compile_kernel(src)

    @pytest.mark.parametrize("head, body, why", [
        ("_i, _r, _s=__import__('os').system('exit 3')", "return _s[0]",
         "is not a kernel function"),
        ("_i, _r, _s, *, _k=open('x')", "return _s[0]",
         "is not a kernel function"),
        ("_i, _r, *_s", "return _s[0]", "is not a kernel function"),
        ("_i, _r, _s: print('x')", "return _s[0]", "is not a kernel function"),
        ("_i, _r, _s) -> print('x'", "return _s[0]",
         "is not a kernel function"),
        ("_i, _r, _s", "return", "return without a value"),
    ], ids=["default", "kwonly-default", "vararg", "annotation", "returns",
            "bare-return"])
    def test_krn002_refuses_signature_escapes(self, head, body, why):
        """A kernel function is exactly ``(_i, _r, _s)``: a default or
        annotation is code that runs at ``def``, so the audit rejects it
        before anything is compiled, and a bare return is a violation,
        not an audit crash."""
        from repro.pipeline.kernels import KernelBuildError, compile_kernel

        src = f"def _rhs({head}):\n    {body}\n"
        assert any(why in p for p in audit_kernel_source(src))
        with pytest.raises(KernelBuildError, match="KRN002"):
            compile_kernel(src)

    def test_krn002_direct_audit(self):
        notes = audit_kernel_source("def k():\n    return open('/etc')\n")
        assert notes
        assert any("open" in note for note in notes)

    def test_krn002_nan_parity(self):
        """A clause using ``min`` renders it as ``_np.minimum``; a
        builtin ``min`` (which does not propagate NaN) is outside the
        kernel whitelist."""
        from repro.core.expr import BinOp

        cl = clause(0, N - 1, ref("A"), BinOp("min", ref("B"), ref("B")))
        ir = compile_plan(cl, {"A": Block(N, P), "B": Block(N, P)})
        assert "_np.minimum" in ir.kernels.source
        assert not sanitize_kernels(ir)
        ir.kernels.source = ir.kernels.source.replace("_np.minimum", "min")
        found = [d.message for d in sanitize_kernels(ir)
                 if d.code == "KRN002"]
        assert any("name 'min' outside the kernel whitelist" in m
                   for m in found)

    def test_krn003_dead_guard(self):
        never = LoopIndex(0) < Const(0)
        cl = clause(0, N - 1, ref("A"), ref("B"), guard=never)
        ir = compile_plan(cl, {"A": Block(N, P), "B": Block(N, P)})
        diags = sanitize_kernels(ir)
        assert any(d.code == "KRN003" for d in diags)
        # dead guards warn; they never trip the strict gate
        check_kernels_strict(ir, True)


class TestVerifyCache:
    """Certified-clean verdicts are cached on the structural program
    key and invalidated with the rest of the pipeline caches."""

    def _pir(self):
        c1 = clause(0, N - 1, ref("V"), ref("U"))
        c2 = clause(0, N - 1, ref("W"), ref("V"))
        decs = {n: Block(N, P) for n in "UVW"}
        return compile_program([c1, c2], decs)

    def test_cache_hit_on_recheck(self):
        pir = self._pir()
        assert pir.cache_key is not None
        v1 = verify_program(pir)
        info = verify_cache_info()
        misses = info["misses"]
        v2 = verify_program(pir)
        info = verify_cache_info()
        assert info["hits"] >= 1
        assert info["misses"] == misses
        assert v1.ok and v2.ok

    def test_unkeyed_program_not_cached(self):
        class Unkeyed(Block):
            def cache_key(self):
                return None  # opts every compile that touches it out

        c1 = clause(0, N - 1, ref("V"), ref("U"))
        c2 = clause(0, N - 1, ref("W"), ref("V"))
        decs = {"U": Unkeyed(N, P), "V": Block(N, P), "W": Block(N, P)}
        pir = compile_program([c1, c2], decs, verify=True)
        assert pir.cache_key is None
        assert program_cache_info()["size"] == 0
        before = verify_cache_info()["size"]
        verify_program(pir)
        assert verify_cache_info()["size"] == before

    def test_clear(self):
        pir = self._pir()
        verify_program(pir)
        clear_verify_cache()
        assert verify_cache_info()["size"] == 0

    def test_verified_program_hits_the_program_cache(self, monkeypatch):
        runs = []
        real_run = PassManager.run

        def counted(manager, ir):
            runs.append([ps.name for ps in manager.passes])
            return real_run(manager, ir)

        monkeypatch.setattr(PassManager, "run", counted)

        def summaries(pir):
            return [st.ir.diagnostics.summary() for st in pir.steps]

        # a verified miss, then a verified hit with the same verdicts
        decs = {n: Block(N, P) for n in "UVW"}
        pair = [clause(0, N - 1, ref("V"), ref("U")),
                clause(0, N - 1, ref("W"), ref("V"))]
        miss = compile_program(pair, decs, verify=True)
        assert not miss.trace.cache_hit and miss.cache_key is not None
        runs.clear()
        hit = compile_program(pair, decs, verify=True)
        assert hit.trace.cache_hit and runs == []
        assert summaries(hit) == summaries(miss)
        # the verified entry serves an unverified call too
        assert compile_program(pair, decs).trace.cache_hit

        # an unverified entry (the barrier is kept, so fuse-clauses
        # attached no RACE verdict) is verified once, on demand
        decs = {n: Block(N, P) for n in "ABC"}
        pair = [clause(1, N - 1, ref("A"), ref("B")),
                clause(1, N - 1, ref("C"), ref("A", c=-1))]
        plain = compile_program(pair, decs)
        assert all(st.ir.diagnostics is None for st in plain.steps)
        runs.clear()
        first = compile_program(pair, decs, verify=True)
        assert first.trace.cache_hit
        assert runs == [["verify-plan"], ["verify-plan"]]
        runs.clear()
        again = compile_program(pair, decs, verify=True)
        assert again.trace.cache_hit and runs == []
        assert summaries(again) == summaries(first)
        # ...and the verdicts landed on the plan cache entries as well
        for st in again.steps:
            assert compile_plan(st.clause, st.decomps,
                                successor=st.ir.successor,
                                verify=True).trace.cache_hit
        assert runs == []
        info = program_cache_info()
        assert (info["hits"], info["misses"]) == (4, 2)


class TestCheckCLI:
    """`repro check` drives the program verifier end to end."""

    def _example(self, name):
        root = os.path.join(os.path.dirname(__file__), os.pardir,
                            "examples", "programs")
        return (os.path.join(root, f"{name}.pal"),
                os.path.join(root, f"{name}.spec"))

    def test_stencil_strict_clean(self, capsys):
        from repro.cli import main

        pal, spec = self._example("stencil")
        rc = main(["check", pal, "--spec", spec, "--strict"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verify <program>: clean" in out
        assert "certified deadlock-free" in out

    def test_json_program_schema(self, capsys):
        import json

        from repro.cli import main

        pal, spec = self._example("stencil")
        rc = main(["check", pal, "--spec", spec, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["ok"]
        prog = payload["program"]
        assert prog["ok"]
        assert prog["certified_deadlock_free"]
        assert "certificate" in prog
        assert isinstance(payload["clauses"], list)

    def test_steps_and_swap_flags(self, capsys):
        from repro.cli import main

        pal, spec = self._example("stencil")
        rc = main(["check", pal, "--spec", spec, "--strict",
                   "--steps", "3", "--swap", "V:U"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verify <program>" in out


class TestProgCleanBackendIdentity:
    """The acceptance property: a program the verifier certifies
    PROG-clean is bit-identical across the scalar, fused and mp
    backends."""

    KINDS = {"block": lambda n: Block(n, P),
             "scatter": lambda n: Scatter(n, P)}

    @settings(max_examples=8, deadline=None)
    @given(
        wkind=st.sampled_from(sorted(KINDS)),
        rkind=st.sampled_from(sorted(KINDS)),
        shift=st.integers(-1, 1),
        repeat=st.integers(1, 2),
        seed=st.integers(0, 2**16),
    )
    def test_prog_clean_is_bit_identical(self, wkind, rkind, shift,
                                         repeat, seed):
        lo, hi = max(0, -shift), min(N - 1, N - 1 - shift)
        c1 = clause(lo, hi, ref("D"),
                    ref("A", c=shift) * 0.5 + ref("B"), name="c1")
        c2 = clause(1, N - 1, ref("E"), ref("D", c=-1) * 2.0, name="c2")
        decs = {"A": self.KINDS[rkind](N), "B": self.KINDS[rkind](N),
                "D": self.KINDS[wkind](N), "E": self.KINDS[wkind](N)}
        pir = compile_program([c1, c2], decs, repeat=repeat,
                              swap=[("D", "E")] if repeat > 1 else ())
        verification = verify_program(pir)
        assert verification.ok, verification.pretty()
        env0 = block_env("A", "B", "D", "E", seed=seed)
        ref_out = evaluate_program_reference(pir, env0)
        for backend in ("scalar", "fused", "mp"):
            m, _ = run_program(pir, copy_env(env0), backend=backend,
                               processes=2)
            for name in ("D", "E"):
                assert np.array_equal(m.env[name], ref_out[name]), \
                    (backend, name)
