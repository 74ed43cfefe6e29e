"""The ledger's one command.

    python3 benchmarks/ledger/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace 0|1|both] [--smoke] [--out FILE]
        [--compare A.json B.json]

Each selected workload runs in a child interpreter of its own, one at a
time.  ``--trace 0`` (the default) measures the end-to-end metrics with
tracing off; ``--trace 1`` measures the per-layer metrics (one window,
every other op with spans on); ``--trace both`` runs the full untraced
window and then a traced one half as long.  Every metric
is printed by name with its unit, and each run ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from . import ROOT, declared, yardstick

HERE = Path(__file__).resolve().parent
MARK = "LEDGER-RESULT "
#: everything a run starts must have ended by then (the contract's
#: limit is 180 s)
RUN_LIMIT_S = 170.0
DEFAULT_SECONDS = 20.0
SMOKE_SECONDS = 2.0


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="benchmarks.ledger",
                                description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", metavar="NAME",
                   help="run this workload (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--seconds", "--duration", type=float, default=None,
                   help=f"timed window per workload (default "
                        f"{DEFAULT_SECONDS:.0f}, {SMOKE_SECONDS:.0f} with "
                        "--smoke)")
    p.add_argument("--trace", nargs="?", const="both", default="0",
                   choices=("0", "1", "both"))
    p.add_argument("--smoke", action="store_true",
                   help="sizes / 8, short windows, no result file")
    p.add_argument("--out", metavar="FILE",
                   help="write the result file here (default for a full "
                        "ledger: benchmarks/ledger/out/ledger-<seed>.json)")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    p.add_argument("--child", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def specs(args, workload: str) -> List[dict]:
    """The child runs one workload takes: an extra set-up-only run, so
    ``setup_s`` is a median, then the measuring run."""
    seconds = args.seconds
    base = {"workload": workload, "seed": args.seed, "smoke": args.smoke,
            "phase": "full"}
    if args.trace == "1":
        base.update(untraced_s=0.0, traced_s=seconds,
                    cold_samples=3 if args.smoke else 5, rounds=1)
        return [base]
    base.update(untraced_s=seconds,
                traced_s=seconds / 2 if args.trace == "both" else 0.0,
                cold_samples=3 if args.smoke else 15, rounds=3)
    setups = 0 if args.smoke else 1
    return [dict(base, phase="setup")] * setups + [base]


def run_child(spec: dict, deadline: float) -> dict:
    """One child interpreter; its whole process group is killed if it
    overruns, so no daemon or worker outlives the run."""
    spec = dict(spec, yard_spawn=yardstick.measure(yardstick.SETUP_PASSES),
                t_spawn=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--child", json.dumps(spec)],
        stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"{spec['workload']}: run exceeded its time limit")
    lines = [ln for ln in out.splitlines() if ln.startswith(MARK)]
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        raise SystemExit(f"{spec['workload']}: child exited with code "
                         f"{proc.returncode} and no result")
    return json.loads(lines[-1][len(MARK):])


def run_workload(args, workload: str) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    results = [run_child(spec, deadline) for spec in specs(args, workload)]
    result = results[-1]
    setups = [r["setup_s"] for r in results]
    result["end_to_end"]["setup_s"].update(
        value=statistics.median(setups), q1=min(setups), q3=max(setups),
        samples=len(setups))
    return result


def units(bench: dict) -> Dict[str, str]:
    return {m["name"]: m["unit"]
            for group in ("end_to_end", "per_layer")
            for m in bench[group]}


def report(result: dict, trace: str, unit_of: Dict[str, str]) -> dict:
    """Print every metric by name with its unit and return the line the
    contract asks for."""
    metrics: Dict[str, dict] = {}
    if trace != "1":
        for name, m in result["end_to_end"].items():
            metrics[name] = {"value": m["value"], "unit": unit_of[name]}
    if trace != "0":
        for name, value in result["per_layer"].items():
            metrics[name] = {"value": value, "unit": unit_of[name]}
    op_traced = result.get("per_layer", {}).get("bench.op_traced_s", 0.0)
    print(f"== {result['workload']}: {result['attempted']} ops, "
          f"{result['failed']} failed, work unit {result['work_unit']} "
          f"x {result['units_per_op']} per op")
    for name, m in metrics.items():
        line = f"  {name:44s} {m['value']:>16.6g} {m['unit']}"
        if name.endswith("_frac") or "_frac." in name:
            # a share of the traced op, also as seconds per op
            line += f"   ({m['value'] * op_traced:.6g} s/op)"
        print(line)
    for why in result["failures"]:
        print(f"  FAILED: {why}")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS
    if args.child:
        from . import runner

        result = runner.run(json.loads(args.child))
        runner.write_spans(result)
        print(MARK + json.dumps(result))
        return 0
    if args.compare:
        from .compare import compare

        return compare(*args.compare)

    if not (ROOT / "src" / "repro").is_dir():
        # the ledger measures this checkout's source, never an installed
        # copy: without it there is nothing to measure
        raise SystemExit(f"no program to measure: {ROOT / 'src' / 'repro'} "
                         "is missing")
    known = [w["name"] for w in declared()["workloads"]]
    chosen = args.workload or known
    for name in chosen:
        if name not in known:
            raise SystemExit(f"unknown workload {name!r}; one of {known}")
    unit_of = units(declared())
    ledger = {"meta": {"seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "smoke": args.smoke,
                       "git_commit": git_commit()},
              "workloads": {}}
    lines = []
    for name in chosen:
        result = run_workload(args, name)
        ledger["meta"].update(result.pop("meta"))
        ledger["workloads"][name] = result
        lines.append(report(result, args.trace, unit_of))
    out = args.out
    if out is None and not args.workload and not args.smoke:
        out = HERE / "out" / f"ledger-{args.seed}.json"
    if out is not None and not args.smoke:
        with open(out, "w") as fh:
            json.dump(ledger, fh, indent=1)
            fh.write("\n")
        print(f"result file: {out}")
    for line in lines:
        print(json.dumps(line))
    return 0 if all(ln["correct"] for ln in lines) else 1
