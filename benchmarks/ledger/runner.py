"""One workload, one interpreter: the phases of a ledger run.

``run(spec)`` executes in a child interpreter started by ``cli.py`` so
that set-up time and peak memory are per workload and no cache leaks
from one workload into the next.  Phases:

1. *set-up* — ``calibrate()``, inputs and references from the seed,
   pool or daemon spawn, three warm-up ops (``setup_s`` ends here);
2. *cold-compile sampling* — ``clear_all_caches()`` before each sample
   of the workload's whole program set, a warm recompile after it;
3. *untraced window* — closed loop, outputs checked outside the timed
   region (the end-to-end metrics); phases 2 and 3 alternate in rounds;
4. *traced window* — the same loop with spans on for every other op,
   plus three fixed probes (the per-layer metrics);
5. *teardown* — ``shutdown_runtime()``, then a scan for leaked
   ``/dev/shm/repro-mp-*`` segments and surviving child processes.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import ROOT, declared, yardstick
from .spans import NULL, Recorder, self_times, total_by_name
from .stats import median_seconds, quartiles, ratio, sampled, single, tail
from .workload import OUT_DIR, PMAX, Config, Window, child_env
from .workloads import WORKLOADS

__all__ = ["run"]

WARMUP_OPS = 3

#: clause- and program-level passes reported per name
PASSES = (
    "substitute-views", "optimize-membership", "split-interior",
    "insert-halo", "eliminate-barriers", "recognize-reduction",
    "license-doacross", "lower-kernels", "compile-clauses",
    "elide-redistribution", "fuse-clauses", "pipeline-time-loop",
)
#: Table I rules that fire on the seeded program sets; anything else is
#: counted under ``sets.rule.other``
RULES = ("block", "thm3-cor1", "thm3-linear", "repeated-scatter",
         "thm2-repeated-block", "piecewise-block", "piecewise-thm3-cor1",
         "piecewise-repeated-scatter", "piecewise-thm2-repeated-block")


# ---------------------------------------------------------------------------
# the process tree and /dev/shm
# ---------------------------------------------------------------------------

def descendants(root: int) -> List[int]:
    """Live processes below *root*, from ``/proc``."""
    parent_of: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # "pid (comm) state ppid ..."; comm may hold spaces
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[0] != "Z":
            parent_of[int(entry)] = int(fields[1])
    out, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        kids = [p for p, pp in parent_of.items() if pp == pid]
        out.extend(kids)
        frontier.extend(kids)
    return out


def vm_hwm_mib(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def shm_segments() -> set:
    try:
        return {f for f in os.listdir("/dev/shm")
                if f.startswith("repro-mp-")}
    except OSError:
        return set()


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------

def warm_up(wl) -> None:
    wl.begin_window()
    for _ in range(WARMUP_OPS):
        why = wl.check(wl.op(NULL))
        if why is not None:
            raise RuntimeError(f"{wl.name}: warm-up op failed: {why}")
    why = wl.finish()
    if why is not None:
        raise RuntimeError(f"{wl.name}: wrong state after warm-up: {why}")


def sample_compiles(wl, samples: int) -> dict:
    """Cold and warm compiles of the workload's program set, each with
    its per-layer split (frontend / pipeline / analysis / codegen); the
    cold ones also in nominal seconds."""
    from repro.cacheinfo import clear_all_caches

    out: Dict[str, list] = {"cold": [], "cold_nominal": [], "hit": [],
                            "cold_layers": [], "hit_layers": [], "infos": []}
    for _ in range(samples):
        clear_all_caches()
        before = yardstick.measure()
        for kind in ("cold", "hit"):
            rec = Recorder()
            t0 = time.perf_counter()
            info = wl.compile_set(rec, "miss" if kind == "cold" else "hit")
            out[kind].append(time.perf_counter() - t0)
            out[kind + "_layers"].append(self_times(rec.spans))
            if kind == "cold":
                out["infos"].append(info)
                slow = yardstick.slowdown(before, yardstick.measure())
                out["cold_nominal"].append(out["cold"][-1] / slow)
    return out


def import_seconds() -> float:
    """``python -c "import repro"`` in a fresh interpreter."""
    return median_seconds(
        lambda: subprocess.run([sys.executable, "-c", "import repro"],
                               env=child_env(), check=True), 3)


def dispatch_floor_seconds() -> float:
    """A 32-element clause through ``run_distributed`` on a pre-placed
    machine: the fixed backend ladder and schedule cost of one clause
    execution."""
    from repro.codegen import compile_clause, run_distributed
    from repro.decomp import Block
    from repro.machine import DistributedMachine

    from .stencils import e13_clause

    n = 32
    decomps = {"A": Block(n, PMAX), "B": Block(n, PMAX)}
    plan = compile_clause(e13_clause(n), decomps)
    machine = DistributedMachine(PMAX)
    for name, dec in decomps.items():
        machine.place(name, np.zeros(n), dec)
    return median_seconds(
        lambda: run_distributed(plan, None, machine=machine,
                                backend="fused"), 30)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(wl, setup_s: float, compiles: dict, win: Window,
               rss_mib: float) -> dict:
    units = wl.units_per_op
    rates = sampled([units / d for d in win.nominal], "1/s")
    rates["value"] = ratio(units * win.attempted, win.nominal_wall_s)
    return {
        "setup_s": single(setup_s, "s"),
        "compile_cold_s": sampled(compiles["cold_nominal"], "s"),
        "op_s": sampled(win.nominal, "s"),
        "work_per_s": rates,
        "peak_rss_mb": single(rss_mib, "MiB"),
    }


def per_layer(wl, machine, compiles: dict, mixed: Window, rec: Recorder,
              caches: Tuple[dict, dict], probes: dict) -> dict:
    """Every per-layer metric by name; a layer the workload never calls
    reads 0.  *mixed* is the traced window: counts cover all its ops,
    spans the traced half."""
    names = [m["name"] for m in declared()["per_layer"]]
    v: Dict[str, float] = dict.fromkeys(names, 0)
    ops = mixed.attempted
    traced = mixed.only(True)
    # where spans are made after the fact every op is traced, for free
    paired = mixed.only(False) or traced
    spans = total_by_name(rec.spans)
    op_total = spans.get("op", 0.0)

    def frac(*prefixes: str) -> float:
        return ratio(sum(s for name, s in spans.items()
                         if name.startswith(prefixes)), op_total)

    op_untraced = statistics.median(paired)
    op_traced = statistics.median(traced)
    q1, q3 = quartiles(traced)
    tail_s, tail_pct = tail(traced)
    layers = self_times(rec.spans)
    v.update({
        "bench.ops": len(traced),
        "bench.op_untraced_s": op_untraced,
        "bench.op_traced_s": op_traced,
        "bench.op_iqr_s": q3 - q1,
        "bench.op_tail_s": tail_s,
        "bench.op_tail_pct": tail_pct,
        "bench.trace_overhead": op_traced / op_untraced - 1.0,
        "bench.span_coverage": ratio(
            sum(s for layer, s in layers.items() if layer != "bench"),
            op_total),
        # how far from its usual speed the host ran during the window
        "bench.host_slowdown": statistics.median(mixed.slowdowns),
        "bench.import_s": probes["import_s"],
        "bench.reference_s": probes["reference_s"],
        "bench.overhead_over_reference": ratio(probes["op_untraced_s"],
                                               probes["reference_s"]),
        "core.evaluator_s": wl.evaluator_s,
        "codegen.dispatch_floor_s": probes["dispatch_floor_s"],
    })

    # -- machine: where the op's time went, and the exact counts --------
    place, collect = frac("machine.place"), frac("machine.collect")
    # seconds one op spends executing clauses, wherever that happens
    execute_s = frac("machine.execute", "machine.run_program",
                     "runtime.run_program") * op_total / len(traced)
    v.update({
        "machine.place_frac": place,
        "machine.collect_frac": collect,
        "machine.place_share": place + collect,
        "machine.execute_frac": frac("machine.execute",
                                     "machine.run_program"),
    })
    for shape in ("grid2d", "block1d", "bs1d"):
        v[f"machine.place_frac.{shape}"] = frac(f"machine.place.{shape}")
        v[f"machine.collect_frac.{shape}"] = frac(f"machine.collect.{shape}")
    counts = wl.counts
    for key in ("messages", "elements_moved", "updates", "iterations",
                "barriers", "scheduler_steps"):
        v[f"machine.{key}"] = counts[key] / ops
    v["sets.membership_tests"] = counts["membership_tests"] / ops
    v["machine.load_imbalance"] = wl.imbalance
    v["machine.computed_bytes"] = 8 * wl.accesses
    rate = ratio(counts["updates"] / ops, execute_s)
    v["machine.update_rate"] = rate
    v["machine.roof_fraction"] = rate * machine.t_element_s
    coeff = np.array([machine.alpha_s, machine.beta_s, machine.t_element_s])
    modeled = sum(float((table @ coeff).max())
                  for table in wl.model_nodes) / ops
    v["machine.model_over_measured"] = ratio(modeled, execute_s)
    v["machine.model_rel_err"] = ratio(abs(modeled - execute_s), execute_s)

    # -- the compile path: per-op shares and per-sample times -----------
    v.update({
        "frontend.translate_frac": frac("frontend.translate"),
        "pipeline.compile_miss_frac": frac("pipeline.compile.miss",
                                           "pipeline.clear_caches"),
        "pipeline.compile_hit_frac": frac("pipeline.compile.hit"),
        "analysis.verify_miss_frac": frac("analysis.verify.miss"),
        "analysis.verify_hit_frac": frac("analysis.verify.hit"),
        "codegen.emit_frac": frac("codegen.emit"),
    })

    def layer_median(kind: str, layer: str) -> float:
        return statistics.median(
            s.get(layer, 0.0) for s in compiles[kind + "_layers"])

    miss_s = layer_median("cold", "pipeline")
    v.update({
        "pipeline.compile_miss_s": miss_s,
        "pipeline.compile_hit_s": layer_median("hit", "pipeline"),
        "analysis.verify_miss_s": layer_median("cold", "analysis"),
        "analysis.verify_hit_s": layer_median("hit", "analysis"),
    })
    infos = compiles["infos"]
    for name in PASSES:
        records = [[r for t in info.traces for r in t.records
                    if r.name == name] for info in infos]
        ms = statistics.median(sum(r.wall_ms for r in rs) for rs in records)
        v[f"pipeline.pass.{name}_share"] = ratio(ms / 1e3, miss_s)
        v[f"pipeline.pass.{name}.rewrites"] = sum(
            r.rewrites for r in records[-1])
    info = infos[-1]
    for rule in info.rules:
        key = rule.replace("(", "-").replace(")", "")
        v["sets.rule." + (key if key in RULES else "other")] += 1
    v.update({
        "frontend.clauses": info.clauses,
        "analysis.diagnostics": info.diagnostics,
        "analysis.certified": info.certified,
        "codegen.emitted_bytes": info.emitted_bytes,
    })

    # -- caches over the traced window, per op --------------------------
    before, after = caches
    for cache in ("plan", "kernel", "program"):
        for kind in ("hits", "misses"):
            v[f"pipeline.cache.{cache}_{kind}"] = (
                after[cache][kind] - before[cache][kind]) / ops
    v["pipeline.cache.kernel_bytes"] = after["kernel"]["bytes"]
    for kind in ("hits", "misses"):
        v[f"sets.table1_{kind}"] = (
            after["table1"][kind] - before["table1"][kind]) / ops

    v.update(wl.layer_metrics(mixed, probes))
    if set(v) != set(names):
        raise RuntimeError(
            f"per-layer names differ from BENCHMARK.json: "
            f"{sorted(set(v) ^ set(names))}")
    return v


#: per-layer counts that must repeat exactly for one seed
EXACT = ("sets.rule.", "frontend.clauses", "analysis.diagnostics",
         "analysis.certified", "codegen.emitted_bytes")
#: ... wherever every op does the same work (not ``serve-mixed``, whose
#: request count per window is not fixed)
EXACT_PER_OP = ("machine.messages", "machine.elements_moved",
                "machine.updates", "machine.iterations", "machine.barriers",
                "machine.scheduler_steps", "machine.load_imbalance",
                "machine.computed_bytes", "sets.membership_tests")
#: ... and where every op starts from cleared caches
EXACT_CACHES = ("pipeline.cache.plan_", "pipeline.cache.kernel_hits",
                "pipeline.cache.kernel_misses", "pipeline.cache.program_",
                "sets.table1_")


def exact_names(workload: str, names: Sequence[str]) -> List[str]:
    prefixes = EXACT
    if workload != "serve-mixed":
        prefixes += EXACT_PER_OP
    if workload == "compile-cold":
        prefixes += EXACT_CACHES
    return sorted(n for n in names
                  if n.endswith(".rewrites") or n.startswith(prefixes))


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def provenance(machine, load_at_start: List[float]) -> dict:
    """Where and on what a result was measured.  ``native`` and ``mpi``
    are not ledger workloads: a fused fallback or a threaded stub is not
    a measurement, so they are recorded as unmeasured with the reason
    the backend registry gives."""
    import platform

    from repro.backends import availability_snapshot

    availability = {k: dict(a) for k, a in availability_snapshot().items()}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "load_average_at_start": load_at_start,
        "availability": availability,
        "unmeasured": {
            name: {"measured": False, "reason": availability[name]["reason"]}
            for name in ("native", "mpi")},
        "machine": machine.as_dict(),
    }


def run(spec: dict) -> dict:
    """Run one workload as *spec* says and return its result record."""
    from repro.cacheinfo import cache_stats
    from repro.machine.calibrate import calibrate

    t_spawn = spec["t_spawn"]
    load_at_start = list(os.getloadavg())
    shm_before = shm_segments()
    wl = WORKLOADS[spec["workload"]](Config(spec["seed"], spec["smoke"]))
    result: dict = {"workload": wl.name, "work_unit": wl.work_unit}
    try:
        machine = calibrate()
        wl.set_up()
        warm_up(wl)
        setup_wall_s = time.monotonic() - t_spawn
        # the parent took its yardstick passes right before it spawned us
        setup_s = setup_wall_s / yardstick.slowdown(
            spec["yard_spawn"], yardstick.measure(yardstick.SETUP_PASSES))
        result["setup_s"] = setup_s
        if spec["phase"] == "setup":
            return result

        # cold-compile sampling and the untraced window take turns, so
        # that each spans the whole run: the host's speed drifts over
        # tens of seconds, and samples taken close together share it
        rounds = spec["rounds"]
        compiles: Dict[str, list] = {}
        untraced = Window()
        for _ in range(rounds):
            for key, xs in sample_compiles(
                    wl, spec["cold_samples"] // rounds).items():
                compiles.setdefault(key, []).extend(xs)
            rewarm_s = wl.rewarm()
            if spec["untraced_s"] > 0:
                untraced.extend(wl.window(spec["untraced_s"] / rounds))
        windows = [untraced]
        if spec["traced_s"] > 0:
            rec = Recorder()
            before = cache_stats()
            mixed = wl.window(spec["traced_s"], rec)
            after = cache_stats()
            windows.append(mixed)
            if not untraced.attempted:
                # a traced-only run: its untraced ops are the run
                plain = mixed.untraced()
                untraced = plain if plain.attempted else mixed
            probes = {"import_s": import_seconds(),
                      "dispatch_floor_s": dispatch_floor_seconds(),
                      "reference_s": median_seconds(wl.reference_op, 5),
                      "setup_s": setup_wall_s,
                      "rewarm_s": rewarm_s,
                      "op_untraced_s": statistics.median(untraced.durations)}
            values = per_layer(wl, machine, compiles, mixed, rec,
                               (before, after), probes)
            values["bench.fail_ratio"] = ratio(
                sum(w.failed for w in windows),
                sum(w.attempted for w in windows))
            result["per_layer"] = values
            result["exact"] = exact_names(wl.name, list(values))
            result["spans"] = rec.spans
        rss = vm_hwm_mib(os.getpid()) + sum(
            vm_hwm_mib(pid) for pid in descendants(os.getpid()))
        result["end_to_end"] = end_to_end(wl, setup_s, compiles, untraced,
                                          rss)
        result["units_per_op"] = wl.units_per_op
        result["meta"] = provenance(machine, load_at_start)
        result["attempted"] = sum(w.attempted for w in windows)
        failures = [f for w in windows for f in w.failures]
    finally:
        wl.tear_down()
    leaked = sorted(shm_segments() - shm_before)
    # multiprocessing's resource tracker lives until this process exits
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker._resource_tracker, "_pid", None)
    survivors = [p for p in descendants(os.getpid()) if p != tracker]
    if leaked:
        failures.append(f"leaked shared memory: {leaked}")
    if survivors:
        failures.append(f"child processes survived teardown: {survivors}")
    if "per_layer" in result:
        result["per_layer"]["runtime.leaked_shm"] = len(leaked)
    # a leak or a survivor fails the run even when every op passed
    result["failed"] = min(result["attempted"], len(failures))
    result["correct"] = not failures
    result["failures"] = failures[:5]
    return result


def write_spans(result: dict) -> None:
    """Move the spans of a traced run into ``out/trace-<workload>.json``."""
    spans = result.pop("spans", None)
    if spans is None:
        return
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{result['workload']}.json"
    with open(path, "w") as fh:
        json.dump({"workload": result["workload"], "spans": spans}, fh)
    result["trace_file"] = os.path.relpath(path, ROOT)
