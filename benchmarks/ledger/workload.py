"""The protocol every ledger workload follows, and its bookkeeping.

``set_up`` builds inputs from the seed and the references beside them,
``compile_set`` takes the workload's whole program set from text (or
``Clause`` objects where there is no text form) to verified, runnable
plans, ``op`` is the timed operation and ``check`` judges its output
outside the timed region.  Sizes never depend on the seed, so the work
units per op are constant.
"""

from __future__ import annotations

import gc
import os
import signal
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import ROOT, yardstick
from .spans import NULL, Recorder

__all__ = ["Config", "CompileInfo", "Window", "Workload"]

#: simulated nodes of every distributed workload (a 2 x 2 grid)
PMAX = 4
#: worker processes / client connections of the load generator
PROCESSES = min(2, os.cpu_count() or 1)
#: an op that runs longer than this is a failed op
OP_TIMEOUT_S = 60.0

OUT_DIR = Path(__file__).resolve().parent / "out"


def child_env() -> Dict[str, str]:
    """The environment of a child that imports this checkout's repro."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Config:
    seed: int = 2026
    smoke: bool = False

    def size(self, n: int) -> int:
        """Benchmark size *n*, or an eighth of it under ``--smoke``."""
        return n // 8 if self.smoke else n


@dataclass
class CompileInfo:
    """What one pass of ``compile_set`` produced, beside the plans."""

    traces: List[object] = field(default_factory=list)
    rules: List[str] = field(default_factory=list)
    clauses: int = 0
    diagnostics: int = 0
    certified: int = 0
    emitted_bytes: int = 0

    def add_plan(self, ir, report) -> None:
        self.traces.append(ir.trace)
        self.rules.extend(ir.rules().values())
        self.clauses += 1
        self.diagnostics += len(report.diagnostics)
        self.certified += int(report.ok)


@dataclass
class Window:
    """One measured window: per-op wall times, the host's slowdown
    beside each (see :mod:`yardstick`) and the failure account."""

    durations: List[float] = field(default_factory=list)
    #: per op: ``yardstick.slowdown`` of the passes around it
    slowdowns: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    #: the window's wall time, in nominal seconds
    nominal_wall_s: float = 0.0
    #: per op: did it run with spans on?
    traced: List[bool] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.durations)

    @property
    def nominal(self) -> List[float]:
        """Per-op times in nominal seconds."""
        return [d / s for d, s in zip(self.durations, self.slowdowns)]

    def extend(self, other: "Window") -> None:
        self.durations += other.durations
        self.slowdowns += other.slowdowns
        self.failures += other.failures
        self.traced += other.traced
        self.nominal_wall_s += other.nominal_wall_s

    def only(self, traced: bool) -> List[float]:
        """The wall times of the ops that ran with (without) spans."""
        return [d for d, t in zip(self.durations, self.traced)
                if t == traced]

    def untraced(self) -> "Window":
        """The ops that ran without spans, as a window of their own."""
        keep = [i for i, t in enumerate(self.traced) if not t]
        win = Window([self.durations[i] for i in keep],
                     [self.slowdowns[i] for i in keep],
                     traced=[False] * len(keep))
        win.nominal_wall_s = sum(win.nominal)
        return win

    @property
    def failed(self) -> int:
        return len(self.failures)


class OpTimeout(Exception):
    """An op exceeded :data:`OP_TIMEOUT_S`."""


def _on_alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_TIMEOUT_S:.0f} s")


def machine_counts(stats) -> Counter:
    """The exact counters of one ``MachineStats`` as a ``Counter``."""
    return Counter(
        messages=stats.total_messages(),
        elements_moved=stats.total_elements_moved(),
        updates=stats.total_updates(),
        iterations=stats.total("iterations"),
        barriers=stats.total("barriers"),
        scheduler_steps=stats.total("steps"),
        membership_tests=stats.total_tests(),
    )


def node_table(stats) -> np.ndarray:
    """Per node: messages (sends+recvs), elements (sent+received),
    local updates — the three terms of the ``alpha + beta n`` model."""
    return np.array([[n.sends + n.recvs,
                      n.elements_sent + n.elements_received,
                      n.local_updates] for n in stats.nodes], dtype=float)


class Workload:
    """Protocol and shared bookkeeping of a workload."""

    name = ""
    work_unit = ""

    def __init__(self, cfg: Config):
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.seed)
        self.units_per_op = 0
        #: array elements read plus written by one op (computed bytes)
        self.accesses = 0
        self.evaluator_s = 0.0
        self.info = CompileInfo()
        # (not an override: those may need what set_up builds)
        Workload.begin_window(self)

    # -- protocol -----------------------------------------------------------

    def set_up(self) -> None:
        raise NotImplementedError

    def compile_set(self, rec: Recorder, tag: str = "miss") -> CompileInfo:
        raise NotImplementedError

    def op(self, rec: Recorder):
        raise NotImplementedError

    def check(self, out) -> Optional[str]:
        """Judge one op's output; ``None`` or the reason it failed."""
        raise NotImplementedError

    def finish(self) -> Optional[str]:
        """End-of-window verdict for state that is checked once."""
        return None

    def reference_op(self) -> None:
        """The plain single-process reference for one op's outputs."""
        raise NotImplementedError

    def rewarm(self) -> float:
        """Bring back what cold-compile sampling dropped; seconds spent
        in the first op after it (0 when nothing was dropped)."""
        return 0.0

    def layer_metrics(self, mixed: "Window",
                      probes: Dict[str, float]) -> Dict[str, float]:
        """Per-layer metrics only this workload can report."""
        return {}

    def tear_down(self) -> None:
        from repro.runtime import shutdown_runtime

        shutdown_runtime()

    # -- bookkeeping --------------------------------------------------------

    def begin_window(self) -> None:
        self.counts: Counter = Counter()
        self.imbalance = 0.0
        self.model_nodes: List[np.ndarray] = []

    def account(self, stats) -> None:
        """Add one machine's counters to the current window."""
        self.counts.update(machine_counts(stats))
        self.imbalance = max(self.imbalance, stats.load_imbalance())
        self.model_nodes.append(node_table(stats))

    def window(self, seconds: float, rec: Recorder = NULL) -> Window:
        """Closed loop, one op after another, for *seconds*, a yardstick
        pass between ops.  With an enabled recorder every other op runs
        with spans on, so traced and untraced ops share the same stretch
        of host time and their ratio is the tracing overhead."""
        self.begin_window()
        win = Window()
        signal.signal(signal.SIGALRM, _on_alarm)
        tracer, deadline = rec, time.perf_counter() + seconds
        yard = yardstick.measure()
        while True:
            rec = tracer if win.attempted % 2 else NULL
            if rec.enabled:
                rec.op = win.attempted
            out, why = None, None
            signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
            t0 = time.perf_counter()
            try:
                with rec.span("op", "bench"):
                    out = self.op(rec)
            except Exception as e:  # noqa: BLE001 — a raising op is a failed op
                why = f"{type(e).__name__}: {e}"
            finally:
                t1 = time.perf_counter()
                signal.setitimer(signal.ITIMER_REAL, 0)
            win.durations.append(t1 - t0)
            win.traced.append(rec.enabled)
            if why is None:
                why = self.check(out)
            if why is not None:
                win.failures.append(why)
            # a fresh simulated machine is cyclic garbage that only a
            # full collection frees; collecting here, outside the timed
            # region, keeps peak memory from growing with the op count
            del out
            gc.collect()
            yard, before = yardstick.measure(), yard
            win.slowdowns.append(yardstick.slowdown(before, yard))
            if time.perf_counter() >= deadline:
                break
        # throughput counts the ops' own time, not the checking between
        win.nominal_wall_s = sum(win.nominal)
        why = self.finish()
        if why is not None:
            win.failures = [why] * win.attempted
        return win
