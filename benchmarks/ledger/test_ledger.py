"""Tests of the ledger itself: ``pytest benchmarks/ledger -q``.

Smoke sizes and short windows, so the whole file runs in under a
minute; none of it is part of the tier-1 suite (``testpaths`` is
``tests``).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from benchmarks.ledger import (  # noqa: E402
    compare,
    declared,
    runner,
    yardstick,
)
from benchmarks.ledger.workload import Window  # noqa: E402
from benchmarks.ledger.workloads import WORKLOADS, Config  # noqa: E402

RUN = ["benchmarks/ledger/run.py"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMOKE = ("--smoke", "--seconds", "0.6", "--seed", "7")


def ledger(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_lines(*args: str) -> dict:
    """One contract line per workload, keyed by workload name."""
    out = ledger(*args)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = [json.loads(ln) for ln in out.stdout.splitlines()
             if ln.startswith("{")]
    names = [w["name"] for w in declared()["workloads"]]
    assert len(lines) == len(names)
    return dict(zip(names, lines))


@pytest.fixture(scope="module")
def both():
    return result_lines(*SMOKE, "--trace", "both")


def test_benchmark_json_meets_the_contract():
    d = declared()
    assert set(d) == {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}
    assert d["paths"] == ["benchmarks/ledger"]
    assert 2 <= len(d["workloads"]) <= 8
    assert 1 <= len(d["end_to_end"]) <= 16
    assert 1 <= len(d["per_layer"]) <= 128
    names = [m["name"] for k in ("workloads", "end_to_end", "per_layer")
             for m in d[k]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(n) for n in names)
    for w in d["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in d["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in d["end_to_end"] + d["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in d["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in d["end_to_end"])
    assert {w["name"] for w in d["workloads"]} == set(WORKLOADS)


def test_every_workload_emits_every_declared_metric(both):
    d = declared()
    unit_of = {m["name"]: m["unit"] for m in d["end_to_end"] + d["per_layer"]}
    for workload, line in both.items():
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0, workload
        assert line["attempted"] >= 1
        assert set(line["metrics"]) == set(unit_of), workload
        for name, m in line["metrics"].items():
            assert m["unit"] == unit_of[name]
        for m in d["end_to_end"]:
            assert line["metrics"][m["name"]]["value"] > 0, (workload, m)
        assert line["metrics"]["bench.fail_ratio"]["value"] == 0


def test_exact_metrics_repeat_with_one_seed(both):
    again = result_lines(*SMOKE, "--trace", "1")
    for workload, line in again.items():
        exact = runner.exact_names(workload, list(line["metrics"]))
        assert len(exact) >= 20
        for name in exact:
            assert line["metrics"][name] == both[workload]["metrics"][name], \
                (workload, name)


def test_a_wrong_reference_fails_every_op():
    wl = WORKLOADS["oneshot-place"](Config(seed=7, smoke=True))
    wl.set_up()
    try:
        assert wl.window(0.2).failed == 0
        wl.shapes["block1d"].expected[5] += 1.0
        win = wl.window(0.2)
        assert win.failed == win.attempted >= 1
        assert "differs from the NumPy reference" in win.failures[0]
    finally:
        wl.tear_down()


def test_a_reference_that_disagrees_with_the_evaluator_is_caught(monkeypatch):
    from benchmarks.ledger import reference

    monkeypatch.setattr(reference, "e13", lambda a, b: b.copy())
    wl = WORKLOADS["oneshot-place"](Config(seed=7, smoke=True))
    with pytest.raises(reference.ReferenceMismatch):
        wl.set_up()


def test_a_slow_host_cancels_out_of_nominal_seconds():
    nominal = yardstick.NOMINAL_S
    assert yardstick.slowdown(nominal, 3 * nominal) == pytest.approx(2.0)
    # the same op on a host at its usual speed, then at two thirds of it
    win = Window(durations=[0.2, 0.3], slowdowns=[1.0, 1.5])
    assert win.nominal == pytest.approx([0.2, 0.2])


def test_compare_verdicts():
    def m(value, q1=None, q3=None):
        return {"value": value, "q1": q1 or value, "q3": q3 or value}

    assert compare.verdict(m(1.0), m(1.05), "lower", 0.10) == "same"
    assert compare.verdict(m(1.0), m(1.30), "lower", 0.10) == "worse"
    assert compare.verdict(m(1.0), m(0.70), "lower", 0.10) == "better"
    assert compare.verdict(m(1.0), m(0.70), "higher", 0.10) == "worse"
    assert compare.verdict(m(1.0, 0.8, 1.4), m(1.3, 0.9, 1.5),
                           "lower", 0.10) == "unresolved"


def test_exits_nonzero_without_the_program(tmp_path):
    """In a directory holding only ``BENCHMARK.json`` and the files
    under ``paths`` there is nothing to measure: no result, no zero."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "ledger",
                    tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    out = ledger("--workload", "halo-steps", "--seed", "1", "--seconds",
                 "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert not [ln for ln in out.stdout.splitlines() if ln.startswith("{")]
