"""``compile-cold``: sixteen text programs through the whole compile
path, cold and then warm, verified, emitted and run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis import verify_program
from repro.cacheinfo import cache_stats, clear_all_caches
from repro.codegen.pysource import emit_distributed_source
from repro.core import copy_env, evaluate_program
from repro.decomp.spec import parse_spec
from repro.frontend import translate_source
from repro.pipeline import compile_program, run_program

from . import reference
from .spans import NULL, Recorder
from .workload import CompileInfo, Window, Workload

__all__ = ["CompileCold"]

# ---------------------------------------------------------------------------
# compile-cold
# ---------------------------------------------------------------------------

#: (n, pmax) of the sixteen programs, by position; never seed-dependent
SIZES = ((256, 2), (512, 4), (1024, 8), (256, 4), (512, 8), (1024, 2),
         (256, 8), (512, 2), (1024, 4))
KINDS = ("block", "scatter", "blockscatter(4)", "blockscatter(8)")


def _spec(names: str, n: int, kind: str, pmax: int) -> str:
    return "".join(f"distribute {x}[{n}]({kind}) on {pmax};\n"
                   for x in names)


def family_affine(n, kind, pmax, c):
    last = (n - 1 - c) // 3
    return (f"for i := 0 to {last} par do\n"
            f"    A[i] := B[3 * i + {c}] + 1;\nod;\n",
            _spec("AB", n, kind, pmax))


def family_rotate(n, kind, pmax, c):
    return (f"for i := 0 to {n - 1} par do\n"
            f"    A[i] := B[(i + {c}) mod {n}] * 2;\nod;\n",
            _spec("AB", n, kind, pmax))


def family_chain(n, kind, pmax, c):
    return (f"for i := 1 to {n - 2} par do\n"
            f"    V[i] := U[i - 1] + {c} * U[i] + U[i + 1];\nod;\n"
            f"for i := 1 to {n - 2} par do\n"
            f"    W[i] := V[i - 1] + V[i] + V[i + 1];\nod;\n",
            _spec("UVW", n, kind, pmax))


def family_strided(n, kind, pmax, c):
    return (f"for i := 0 to {n // 2 - 1} par do\n"
            f"    if 2 * B[i] > 1 then A[2 * i] := B[i] + {c}; fi;\nod;\n",
            _spec("AB", n, kind, pmax))


FAMILIES: Tuple[Callable, ...] = (family_affine, family_rotate,
                                  family_chain, family_strided)


@dataclass
class TextProgram:
    source: str
    spec: str
    env: Dict[str, np.ndarray]
    expected: Dict[str, np.ndarray]
    pir: object = None


class CompileCold(Workload):
    name = "compile-cold"
    work_unit = "compiles"

    def set_up(self) -> None:
        self.programs: List[TextProgram] = []
        cell = 0
        for family in FAMILIES:
            for kind in KINDS:
                n, pmax = SIZES[cell % len(SIZES)]
                cell += 1
                c = int(self.rng.integers(2, 8))
                source, spec = family(self.cfg.size(n), kind, pmax, c)
                self.programs.append(self._with_reference(source, spec))
        self.units_per_op = len(self.programs)
        self.compile_set(NULL)

    def _with_reference(self, source: str, spec: str) -> TextProgram:
        """Inputs from the seed, expected outputs from the evaluator."""
        decomps = parse_spec(spec)
        env = {name: self.rng.random(dec.n) for name, dec in decomps.items()}
        t0 = time.perf_counter()
        expected = evaluate_program(translate_source(source, {}),
                                    copy_env(env))
        self.evaluator_s += time.perf_counter() - t0
        return TextProgram(source, spec, env, expected)

    def compile_set(self, rec: Recorder, tag: str = "miss") -> CompileInfo:
        info = CompileInfo()
        for prog in self.programs:
            with rec.span(f"frontend.translate.{tag}", "frontend"):
                program = translate_source(prog.source, {})
                decomps = parse_spec(prog.spec)
            with rec.span(f"pipeline.compile.{tag}", "pipeline"):
                pir = compile_program(program, decomps)
            with rec.span(f"analysis.verify.{tag}", "analysis"):
                verdict = verify_program(pir)
            with rec.span(f"codegen.emit.{tag}", "codegen"):
                for step in pir.steps:
                    info.emitted_bytes += len(
                        emit_distributed_source(step.plan()))
            for step, report in zip(pir.steps, verdict.steps):
                info.add_plan(step.ir, report)
            info.traces.append(pir.trace)
            info.diagnostics += len(verdict.program.diagnostics)
            info.certified += int(verdict.ok)
            prog.pir = pir
        self.info = info
        return info

    def op(self, rec: Recorder):
        with rec.span("pipeline.clear_caches", "pipeline"):
            clear_all_caches()
        self.compile_set(rec, "miss")
        self.compile_set(rec, "hit")
        machines = []
        for prog in self.programs:
            with rec.span("core.copy_env", "core"):
                env = copy_env(prog.env)
            with rec.span("machine.run_program", "machine"):
                machines.append(
                    run_program(prog.pir, env, backend="fused")[0])
        return machines

    def check(self, out) -> Optional[str]:
        # every program is clean by construction: one verdict per
        # program plus one per clause
        if self.info.certified != self.info.clauses + len(self.programs):
            return "a verdict differs from the known answer (certified)"
        for prog, machine in zip(self.programs, out):
            notes = reference.fallback_notes(prog.pir.trace)
            if notes:
                return notes[0]
            for name, want in prog.expected.items():
                if not np.array_equal(machine.env[name], want):
                    return f"{name} differs from the evaluator"
            self.account(machine.stats)
        # every op starts by clearing the caches, which also zeroes
        # their counters: what they read now is this op's traffic
        self.caches = cache_stats()
        return None

    def reference_op(self) -> None:
        prog = self.programs[0]
        evaluate_program(translate_source(prog.source, {}),
                         copy_env(prog.env))

    def layer_metrics(self, mixed: Window,
                      probes: Dict[str, float]) -> Dict[str, float]:
        out = {}
        for cache in ("plan", "kernel", "program"):
            for kind in ("hits", "misses"):
                out[f"pipeline.cache.{cache}_{kind}"] = \
                    self.caches[cache][kind]
        for kind in ("hits", "misses"):
            out[f"sets.table1_{kind}"] = self.caches["table1"][kind]
        return out
