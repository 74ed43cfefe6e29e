"""The three stencil workloads: ``oneshot-place``, ``halo-steps`` and
``timeloop-mp`` — one computation (E19, plus E13 and an affine read for
the one-shot round) through different placements and transports.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from statistics import mean
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.analysis import verify_program
from repro.codegen import compile_clause, run_distributed
from repro.codegen.nddist import (
    collect_nd,
    compile_clause_nd_dist,
    run_distributed_nd,
)
from repro.core import (
    AffineF,
    BinOp,
    Bounds,
    Clause,
    Const,
    IdentityF,
    IndexSet,
    Ref,
    SeparableMap,
    copy_env,
)
from repro.core.clause import Program
from repro.decomp import Block, BlockScatter, GridDecomposition, Scatter
from repro.machine import DistributedMachine
from repro.machine.ndmemory import scatter_global_nd
from repro.pipeline import compile_plan, compile_program, run_program

from . import reference
from .spans import NULL, Recorder
from .stats import median_seconds
from .workload import (
    OP_TIMEOUT_S,
    PMAX,
    PROCESSES,
    CompileInfo,
    Window,
    Workload,
    machine_counts,
    node_table,
)

__all__ = ["HaloSteps", "OneshotPlace", "TimeloopMp", "e13_clause"]

# ---------------------------------------------------------------------------
# clauses
# ---------------------------------------------------------------------------

def e13_clause(n: int) -> Clause:
    return Clause(
        domain=IndexSet.range1d(1, n - 2),
        lhs=Ref("A", SeparableMap([AffineF(1, 0)])),
        rhs=Ref("B", SeparableMap([AffineF(1, -1)]))
        + Ref("B", SeparableMap([AffineF(1, 1)])),
        name="e13",
    )


def affine_clause(n: int) -> Clause:
    return Clause(
        domain=IndexSet.range1d(0, n - 1),
        lhs=Ref("A", SeparableMap([AffineF(1, 0)])),
        rhs=BinOp("+", Ref("B", SeparableMap([AffineF(2, 1)])), Const(1.0)),
        name="bs1d",
    )


def e19_clause(n: int, src: str = "S", dst: str = "T") -> Clause:
    def sref(di, dj):
        fi = AffineF(1, di) if di else IdentityF()
        fj = AffineF(1, dj) if dj else IdentityF()
        return Ref(src, SeparableMap([fi, fj]))

    return Clause(
        IndexSet(Bounds((1, 1), (n - 2, n - 2))),
        Ref(dst, SeparableMap([IdentityF(), IdentityF()])),
        BinOp("*", Const(0.25),
              BinOp("+", BinOp("+", sref(-1, 0), sref(1, 0)),
                    BinOp("+", sref(0, -1), sref(0, 1)))),
        name=f"e19:{src}->{dst}",
    )


def grid2x2(n: int) -> GridDecomposition:
    return GridDecomposition([Block(n, 2), Block(n, 2)])


def place(machine: DistributedMachine, env: Dict[str, np.ndarray],
          decomps: Dict[str, object]) -> None:
    """Place *env* on a fresh machine with the public placement calls."""
    for name, dec in decomps.items():
        arr = np.asarray(env[name], dtype=np.float64)
        if isinstance(dec, GridDecomposition):
            scatter_global_nd(name, arr, dec, machine.memories)
            machine.decomps[name] = dec
        else:
            machine.place(name, arr, dec)


def compile_verified(info: CompileInfo, rec: Recorder, tag: str,
                     clause: Clause, decomps: Dict[str, object]):
    """One clause to a verified, kernel-lowered plan."""
    nd = clause.domain.dim > 1
    with rec.span(f"pipeline.compile.{tag}", "pipeline"):
        plan = (compile_clause_nd_dist(clause, decomps) if nd
                else compile_clause(clause, decomps))
    # the verdict rides on the plan's cache entry: a cold call runs the
    # analyses, a warm one finds the report already attached
    with rec.span(f"analysis.verify.{tag}", "analysis"):
        report = compile_plan(clause, decomps, verify=True).diagnostics
    info.add_plan(plan.ir, report)
    return plan


def stencil_cross_check(wl: Workload, steps: int = 4, n: int = 12) -> None:
    """``reference.e19_steps`` against the evaluator at a reduced size."""
    rng = np.random.default_rng(wl.cfg.seed + 1)
    env = {"S": rng.random((n, n)), "T": rng.random((n, n))}
    s, t = env["S"].copy(), env["T"].copy()
    reference.e19_steps(s, t, steps)
    clauses = [e19_clause(n, *(("S", "T") if k % 2 == 0 else ("T", "S")))
               for k in range(steps)]
    wl.evaluator_s += reference.cross_check(clauses, env, {"S": s, "T": t})


# ---------------------------------------------------------------------------
# oneshot-place
# ---------------------------------------------------------------------------

def ref_grid2d(env: Dict[str, np.ndarray]) -> np.ndarray:
    t = env["T"].copy()
    reference.e19_step(env["S"], t)
    return t


def ref_block1d(env: Dict[str, np.ndarray]) -> np.ndarray:
    return reference.e13(env["A"], env["B"])


def ref_bs1d(env: Dict[str, np.ndarray]) -> np.ndarray:
    return reference.affine_read(env["A"], env["B"])


@dataclass
class Shape:
    """One single-clause distributed run of ``oneshot-place``."""

    clause: Clause
    decomps: Dict[str, object]
    env: Dict[str, np.ndarray]
    written: str
    reference: Callable[[Dict[str, np.ndarray]], np.ndarray]
    updates: int
    #: elements read plus written per update
    accesses: int
    expected: Optional[np.ndarray] = None

    @property
    def nd(self) -> bool:
        return self.clause.domain.dim > 1

    def run(self, plan, env, machine=None):
        runner = run_distributed_nd if self.nd else run_distributed
        return runner(plan, env, machine=machine, backend="fused")

    def collect(self, machine) -> np.ndarray:
        if self.nd:
            return collect_nd(machine, self.written)
        return machine.collect(self.written)


class OneshotPlace(Workload):
    name = "oneshot-place"
    work_unit = "elements"

    def set_up(self) -> None:
        size, rng = self.cfg.size, self.rng
        n2, n13, nbs = size(256), size(1 << 17), size(1 << 14)
        grid = grid2x2(n2)
        self.shapes = {
            "grid2d": Shape(
                e19_clause(n2), {"S": grid, "T": grid},
                {"S": rng.random((n2, n2)), "T": rng.random((n2, n2))},
                "T", ref_grid2d, (n2 - 2) ** 2, 5),
            "block1d": Shape(
                e13_clause(n13),
                {"A": Block(n13, PMAX), "B": Block(n13, PMAX)},
                {"A": rng.random(n13), "B": rng.random(n13)},
                "A", ref_block1d, n13 - 2, 3),
            "bs1d": Shape(
                affine_clause(nbs),
                {"A": BlockScatter(nbs, PMAX, 8),
                 "B": Scatter(2 * nbs, PMAX)},
                {"A": rng.random(nbs), "B": rng.random(2 * nbs)},
                "A", ref_bs1d, nbs, 2),
        }
        for shape in self.shapes.values():
            shape.expected = shape.reference(shape.env)
        self.units_per_op = sum(s.updates for s in self.shapes.values())
        self.accesses = sum(s.updates * s.accesses
                            for s in self.shapes.values())
        self._cross_check()
        self.compile_set(NULL)

    def _cross_check(self) -> None:
        rng = np.random.default_rng(self.cfg.seed + 1)
        stencil_cross_check(self, steps=1)
        a, b = rng.random(96), rng.random(96)
        self.evaluator_s += reference.cross_check(
            [e13_clause(96)], {"A": a, "B": b}, {"A": reference.e13(a, b)})
        a, b = rng.random(48), rng.random(96)
        self.evaluator_s += reference.cross_check(
            [affine_clause(48)], {"A": a, "B": b},
            {"A": reference.affine_read(a, b)})

    def compile_set(self, rec: Recorder, tag: str = "miss") -> CompileInfo:
        info = CompileInfo()
        self.plans = {
            label: compile_verified(info, rec, tag, s.clause, s.decomps)
            for label, s in self.shapes.items()}
        self.info = info
        return info

    def op(self, rec: Recorder):
        out = {}
        for label, shape in self.shapes.items():
            plan = self.plans[label]
            if rec.enabled:
                # the traced run calls the public pieces one by one so
                # each gets its own span
                with rec.span(f"machine.place.{label}", "machine"):
                    machine = DistributedMachine(PMAX)
                    place(machine, shape.env, shape.decomps)
                with rec.span(f"machine.execute.{label}", "machine"):
                    shape.run(plan, None, machine=machine)
            else:
                machine = shape.run(plan, shape.env)
            with rec.span(f"machine.collect.{label}", "machine"):
                out[label] = (machine, shape.collect(machine))
        return out

    def check(self, out) -> Optional[str]:
        for label, (machine, got) in out.items():
            notes = reference.fallback_notes(self.plans[label].trace)
            if notes:
                return f"{label}: {notes[0]}"
            if not np.array_equal(got, self.shapes[label].expected):
                return f"{label}: output differs from the NumPy reference"
            self.account(machine.stats)
        return None

    def reference_op(self) -> None:
        for shape in self.shapes.values():
            shape.reference(shape.env)


# ---------------------------------------------------------------------------
# halo-steps
# ---------------------------------------------------------------------------

class HaloSteps(Workload):
    name = "halo-steps"
    work_unit = "updates"
    STEPS = 20

    def set_up(self) -> None:
        n = self.n = self.cfg.size(384)
        self.grid = grid2x2(n)
        # the reference state, advanced beside the machine after every op
        self.s_ref = self.rng.random((n, n))
        self.t_ref = self.rng.random((n, n))
        self.machine = DistributedMachine(PMAX)
        place(self.machine, {"S": self.s_ref, "T": self.t_ref},
              {"S": self.grid, "T": self.grid})
        self.units_per_op = self.STEPS * (n - 2) ** 2
        self.accesses = 5 * self.units_per_op
        stencil_cross_check(self)
        self.compile_set(NULL)

    def compile_set(self, rec: Recorder, tag: str = "miss") -> CompileInfo:
        info = CompileInfo()
        decomps = {"S": self.grid, "T": self.grid}
        self.plans = [
            compile_verified(info, rec, tag, e19_clause(self.n, src, dst),
                             decomps)
            for src, dst in (("S", "T"), ("T", "S"))]
        self.info = info
        return info

    def op(self, rec: Recorder):
        for _ in range(self.STEPS // 2):
            for plan in self.plans:
                with rec.span("machine.execute", "machine"):
                    run_distributed_nd(plan, None, machine=self.machine,
                                       backend="fused")

    def begin_window(self) -> None:
        super().begin_window()
        # the machine persists, so its counters are cumulative
        self._seen = machine_counts(self.machine.stats)
        self._seen_nodes = node_table(self.machine.stats)

    def check(self, out) -> Optional[str]:
        reference.e19_steps(self.s_ref, self.t_ref, self.STEPS)
        notes = reference.fallback_notes(*(p.trace for p in self.plans))
        if notes:
            return notes[0]
        stats = self.machine.stats
        now, nodes = machine_counts(stats), node_table(stats)
        self.counts.update(now - self._seen)
        self.model_nodes.append(nodes - self._seen_nodes)
        self.imbalance = max(self.imbalance, stats.load_imbalance())
        self._seen, self._seen_nodes = now, nodes
        return None

    def finish(self) -> Optional[str]:
        """Collect both buffers and compare them with the reference
        advanced by the same number of steps."""
        for name, want in (("S", self.s_ref), ("T", self.t_ref)):
            if not np.array_equal(collect_nd(self.machine, name), want):
                return (f"{name} differs from the NumPy reference after "
                        "the window")
        return None

    def reference_op(self) -> None:
        reference.e19_steps(self.s_ref.copy(), self.t_ref.copy(), self.STEPS)


# ---------------------------------------------------------------------------
# timeloop-mp
# ---------------------------------------------------------------------------

class TimeloopMp(Workload):
    name = "timeloop-mp"
    work_unit = "updates"
    REPEAT = 100

    def set_up(self) -> None:
        n = self.n = self.cfg.size(384)
        self.env = {"S": self.rng.random((n, n)), "T": np.zeros((n, n))}
        s, t = self.env["S"].copy(), self.env["T"].copy()
        reference.e19_steps(s, t, self.REPEAT)
        self.expected = {"S": s, "T": t}
        self.units_per_op = self.REPEAT * (n - 2) ** 2
        self.accesses = 5 * self.units_per_op
        stencil_cross_check(self)
        self.compile_set(NULL)

    def compile_set(self, rec: Recorder, tag: str = "miss") -> CompileInfo:
        info = CompileInfo()
        grid = grid2x2(self.n)
        with rec.span(f"pipeline.compile.{tag}", "pipeline"):
            pir = compile_program(
                Program([e19_clause(self.n)]), {"S": grid, "T": grid},
                repeat=self.REPEAT, swap=(("S", "T"),))
        with rec.span(f"analysis.verify.{tag}", "analysis"):
            verdict = verify_program(pir)
        if not pir.pipelined:
            raise RuntimeError(
                f"time loop is not pipelined: {pir.pipeline_reason}")
        for step, report in zip(pir.steps, verdict.steps):
            info.add_plan(step.ir, report)
        info.traces.append(pir.trace)
        info.diagnostics += len(verdict.program.diagnostics)
        self.pir, self.info = pir, info
        return info

    def run(self, backend: str, rec: Recorder = NULL):
        with rec.span("core.copy_env", "core"):
            env = copy_env(self.env)
        with rec.span("runtime.run_program", "runtime"):
            machine, _ = run_program(self.pir, env, backend=backend,
                                     processes=PROCESSES,
                                     timeout=OP_TIMEOUT_S)
        return machine

    def op(self, rec: Recorder):
        return self.run("mp", rec)

    def begin_window(self) -> None:
        super().begin_window()
        self.runtime: Counter = Counter()
        self.pids: List[frozenset] = []

    def check(self, out) -> Optional[str]:
        notes = reference.fallback_notes(self.pir.trace)
        if notes:
            return notes[0]
        fault = reference.mp_worker_fault(out, PROCESSES)
        if fault:
            return fault
        for name, want in self.expected.items():
            if not np.array_equal(out.env[name], want):
                return f"{name} differs from the NumPy reference"
        self.account(out.stats)
        workers = out.runtime_stats
        self.pids.append(frozenset(w.pid for w in workers))
        self.runtime.update(
            kernel_s=mean(w.kernel_s for w in workers),
            barrier_s=mean(w.barrier_s for w in workers),
            worker_total_s=max(w.total_s for w in workers),
            send_bytes=sum(w.send_bytes for w in workers),
            send_count=sum(w.send_count for w in workers),
        )
        return None

    def rewarm(self) -> float:
        return median_seconds(lambda: self.run("mp"), 1)

    def reference_op(self) -> None:
        reference.e19_steps(self.env["S"].copy(), self.env["T"].copy(),
                            self.REPEAT)

    def layer_metrics(self, mixed: Window,
                      probes: Dict[str, float]) -> Dict[str, float]:
        fused_s = median_seconds(lambda: self.run("fused"), 3)
        ops, total, rt = mixed.attempted, sum(mixed.durations), self.runtime
        worker = rt["worker_total_s"] / total
        return {
            "runtime.kernel_frac": rt["kernel_s"] / total,
            "runtime.barrier_frac": rt["barrier_s"] / total,
            "runtime.worker_frac": worker,
            "runtime.dispatch_frac": 1.0 - worker,
            "runtime.send_bytes": rt["send_bytes"] / ops,
            "runtime.send_count": rt["send_count"] / ops,
            "runtime.cold_over_warm":
                probes["rewarm_s"] / probes["op_untraced_s"],
            "runtime.pool_reused": int(len(set(self.pids)) == 1),
            "runtime.workers": len(frozenset().union(*self.pids)),
            "runtime.speedup_over_fused":
                fused_s / probes["op_untraced_s"],
        }
