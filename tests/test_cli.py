"""Tests for the command-line interface."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import main, parse_decomposition
from repro.decomp import Block, BlockScatter, Replicated, Scatter, SingleOwner

PROGRAM = """
for i := 0 to 19 par do
    A[i] := B[(i + 6) mod 20] * 2;
od
"""

GUARDED = """
for i := 1 to n - 1 par do
    if A[i] > 0 then
        A[i] := B[i - 1] + 1;
    fi;
od
"""


@pytest.fixture
def prog_file(tmp_path):
    f = tmp_path / "prog.pal"
    f.write_text(PROGRAM)
    return str(f)


@pytest.fixture
def guarded_file(tmp_path):
    f = tmp_path / "guarded.pal"
    f.write_text(GUARDED)
    return str(f)


class TestParseDecomposition:
    def test_block(self):
        name, d = parse_decomposition("A=block:20", 4)
        assert name == "A"
        assert isinstance(d, Block)
        assert (d.n, d.pmax) == (20, 4)

    def test_block_with_size(self):
        _, d = parse_decomposition("A=block:20:7", 4)
        assert d.b == 7

    def test_scatter(self):
        _, d = parse_decomposition("B=scatter:48", 6)
        assert isinstance(d, Scatter)

    def test_bs(self):
        _, d = parse_decomposition("A=bs:20:2", 4)
        assert isinstance(d, BlockScatter)
        assert d.b == 2

    def test_bs_requires_param(self):
        with pytest.raises(SystemExit):
            parse_decomposition("A=bs:20", 4)

    def test_single(self):
        _, d = parse_decomposition("A=single:10:2", 4)
        assert isinstance(d, SingleOwner)
        assert d.owner == 2

    def test_replicated(self):
        _, d = parse_decomposition("A=replicated:10", 4)
        assert isinstance(d, Replicated)

    def test_bad_kind(self):
        with pytest.raises(SystemExit):
            parse_decomposition("A=banana:10", 4)

    def test_bad_shape(self):
        with pytest.raises(SystemExit):
            parse_decomposition("A:block:10", 4)


class TestCommands:
    def test_layout(self, capsys):
        assert main(["layout", "bs:15:2", "--pmax", "4"]) == 0
        out = capsys.readouterr().out
        assert "0  0  1  1  2  2  3  3  0  0  1  1  2  2  3" in out

    def test_compile_prints_rules_and_source(self, prog_file, capsys):
        rc = main([
            "compile", prog_file, "--pmax", "4",
            "--array", "A=block:20", "--array", "B=scatter:20",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "write:A" in out
        assert "def node_program(ctx, RT):" in out
        assert "piecewise" in out

    def test_run_verifies(self, prog_file, capsys):
        rc = main([
            "run", prog_file, "--pmax", "4",
            "--array", "A=block:20", "--array", "B=scatter:20",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "messages=" in out

    def test_run_with_params_and_show(self, guarded_file, capsys):
        rc = main([
            "run", guarded_file, "--pmax", "2",
            "--array", "A=block:12", "--array", "B=block:12",
            "--param", "n=12", "--show", "--seed", "3",
        ])
        assert rc == 0
        assert "A = [" in capsys.readouterr().out

    def test_derive(self, prog_file, capsys):
        rc = main([
            "derive", prog_file, "--pmax", "4",
            "--array", "A=block:20", "--array", "B=scatter:20",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Eq. 3" in out
        assert "semantics-checked: OK" in out

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(PROGRAM))
        rc = main([
            "run", "-", "--pmax", "4",
            "--array", "A=block:20", "--array", "B=block:20",
        ])
        assert rc == 0

    def test_bad_param(self, prog_file):
        with pytest.raises(SystemExit):
            main([
                "run", prog_file, "--pmax", "4",
                "--array", "A=block:20", "--array", "B=block:20",
                "--param", "n=oops",
            ])


class TestFrontendErrors:
    """A program the frontend rejects is a one-line error, never a
    traceback."""

    ARRAYS = ["--array", "A=block:8", "--array", "B=block:8"]

    @pytest.fixture
    def superscript_file(self, tmp_path):
        f = tmp_path / "bad.pal"
        f.write_text("A[i] := B[\u00b2];\n", encoding="utf-8")
        return f

    @pytest.mark.parametrize("command", ["compile", "run", "check", "derive"])
    def test_unicode_digit_is_a_lex_error(self, command, superscript_file):
        with pytest.raises(SystemExit) as exc:
            main([command, str(superscript_file), *self.ARRAYS])
        assert str(exc.value) == (f"error: {superscript_file}: unexpected "
                                  "character '\u00b2' at line 1, column 11")

    @pytest.mark.parametrize("text, message", [
        ("for i := 0 to 3 do A[i] := 1 od", "expected ';', got 'od'"),
        ("A[0] := 1;", "top-level statements must be loops"),
    ])
    def test_parse_and_translate_errors(self, tmp_path, text, message):
        f = tmp_path / "bad.pal"
        f.write_text(text)
        with pytest.raises(SystemExit, match=message):
            main(["compile", str(f), *self.ARRAYS])

    def test_exit_status_1_and_one_stderr_line(self, superscript_file):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(pathlib.Path(__file__).parent.parent / "src"),
             env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "compile", str(superscript_file),
             *self.ARRAYS],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            f"error: {superscript_file}: unexpected character '\u00b2' "
            "at line 1, column 11"]


class TestSpecFileIntegration:
    def test_run_with_spec_file(self, prog_file, tmp_path, capsys):
        spec = tmp_path / "decomp.spec"
        spec.write_text("""
            distribute A[20](block) on 4;
            distribute B[20](scatter) on 4;
        """)
        rc = main(["run", prog_file, "--spec", str(spec)])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_spec_mixed_pmax_rejected(self, prog_file, tmp_path):
        spec = tmp_path / "bad.spec"
        spec.write_text("""
            distribute A[20](block) on 4;
            distribute B[20](scatter) on 2;
        """)
        with pytest.raises(SystemExit, match="mixes processor counts"):
            main(["run", prog_file, "--spec", str(spec)])

    def test_no_decompositions_rejected(self, prog_file):
        with pytest.raises(SystemExit, match="no decompositions"):
            main(["run", prog_file])

    def test_spec_plus_array_override(self, prog_file, tmp_path, capsys):
        spec = tmp_path / "decomp.spec"
        spec.write_text("distribute A[20](block) on 4;")
        rc = main([
            "run", prog_file, "--spec", str(spec),
            "--array", "B=scatter:20",
        ])
        assert rc == 0

    @pytest.mark.parametrize("command", ["compile", "run", "check", "derive"])
    def test_malformed_spec_is_a_one_line_error(self, command, prog_file,
                                                tmp_path):
        spec = tmp_path / "old.spec"
        spec.write_text("distribute A[20](block) on 4;\n"
                        "distribute B[20](overlapped(1)) on 4;\n")
        with pytest.raises(SystemExit) as exc:
            main([command, prog_file, "--spec", str(spec)])
        assert str(exc.value) == (
            f"error: {spec}: unknown distribution kind 'overlapped'; "
            "valid kinds: block[(b)], scatter, blockscatter(b), "
            "single(owner), replicated, collapsed")

    def test_run_with_grid_spec_is_a_one_line_error(self, prog_file,
                                                    tmp_path):
        spec = tmp_path / "grid.spec"
        spec.write_text("distribute A[20](block) on 4;\n"
                        "distribute B[4, 5](block, block) on 2 x 2;\n")
        with pytest.raises(SystemExit, match="error: array 'B' is "
                           "distributed over a processor grid; run and "
                           "derive execute 1-D clauses"):
            main(["run", prog_file, "--spec", str(spec)])

    @pytest.mark.parametrize("backend", ["scalar", "fused"])
    def test_shipped_stencil_example_runs(self, backend, capsys):
        root = pathlib.Path(__file__).parent.parent / "examples" / "programs"
        rc = main(["run", str(root / "stencil.pal"),
                   "--spec", str(root / "stencil.spec"),
                   "--backend", backend])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert [line.split()[:3] for line in out] == [
            ["clause", "clause1:", "OK"], ["clause", "clause2:", "OK"]]


class TestSharedProgramMode:
    def test_shared_run_with_barrier_elimination(self, tmp_path, capsys):
        f = tmp_path / "pipe.pal"
        f.write_text("""
            for i := 0 to 19 par do A[i] := B[i] + 1; od
            for i := 0 to 19 par do C[i] := A[i] * 2; od
        """)
        rc = main([
            "run", str(f), "--shared", "--pmax", "4",
            "--array", "A=block:20", "--array", "B=block:20",
            "--array", "C=block:20",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 barrier(s)" in out  # aligned phases fused

    def test_shared_run_keeps_needed_barriers(self, tmp_path, capsys):
        f = tmp_path / "pipe.pal"
        f.write_text("""
            for i := 0 to 18 par do A[i] := B[i] + 1; od
            for i := 0 to 18 par do C[i] := A[i + 1] * 2; od
        """)
        rc = main([
            "run", str(f), "--shared", "--pmax", "4",
            "--array", "A=block:20", "--array", "B=block:20",
            "--array", "C=block:20",
        ])
        assert rc == 0
        assert "2 barrier(s)" in capsys.readouterr().out


class TestRunVerdict:
    """``run`` judges a result by exact equality, NaNs equal: every tier
    computes an operator the way the evaluator does, so a tolerance
    could only hide a disagreement."""

    ARRAYS = ["--pmax", "2", "--array", "A=block:8", "--array", "B=block:8"]

    def run(self, tmp_path, rhs, *extra):
        f = tmp_path / "p.pal"
        f.write_text(f"for i := 0 to 7 par do A[i] := {rhs}; od\n")
        return main(["run", str(f), *self.ARRAYS, *extra])

    @pytest.mark.parametrize("mode", [[], ["--shared"]],
                             ids=["distributed", "shared"])
    @pytest.mark.parametrize("backend", ["scalar", "fused", "mp"])
    def test_bit_identical_nan_result_is_ok(self, tmp_path, capsys,
                                            backend, mode):
        rc = self.run(tmp_path, "(B[i] - B[i]) / 0", "--backend", backend,
                      *mode)
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "OK" in out and "MISMATCH" not in out

    @pytest.mark.parametrize("backend", ["scalar", "fused", "mp"])
    def test_zero_divisor_runs(self, tmp_path, capsys, backend):
        rc = self.run(tmp_path, "1 div (i - 3)", "--backend", backend,
                      "--show")
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "A = [-1. -1. -1.  0.  1.  0.  0.  0.]" in out

    def test_one_ulp_is_a_mismatch(self, tmp_path, capsys, monkeypatch):
        import repro.cli as cli

        evaluate = cli.evaluate_program

        def nudged(program, env):
            out = evaluate(program, env)
            out["A"][5] = np.nextafter(out["A"][5], np.inf)
            return out

        monkeypatch.setattr(cli, "evaluate_program", nudged)
        rc = self.run(tmp_path, "B[i] * 3")
        assert rc == 1
        assert "MISMATCH" in capsys.readouterr().out
