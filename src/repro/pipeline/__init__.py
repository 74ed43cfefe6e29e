"""The unified pass-based compilation pipeline.

Both the canonical 1-D clause path (``repro.codegen.plan``) and the
d-dimensional grid paths (``repro.codegen.ndplan`` / ``nddist``) route
through :func:`compile_plan`: one Plan IR, one ordered pass list, one
trace.  The ``compile_clause*`` entry points are contract checks over it
and return the :class:`PlanIR` itself — the one plan every template,
emitter and kernel tier consumes.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..core.clause import Clause
from .cache import (
    CompileFlight,
    PlanCache,
    clear_plan_cache,
    compile_flight,
    enable_plan_cache,
    plan_cache,
    plan_cache_info,
    plan_key,
)
from .ir import AccessIR, AxisAccess, InteriorSplit, NodeSplit, PlanIR, access_spec
from .kernels import (
    FusedKernels,
    KernelCache,
    clear_kernel_cache,
    kernel_cache,
    kernel_cache_info,
)
from .manager import PassManager
from .passes import (
    EliminateBarriers,
    LicenseDoacross,
    LowerKernels,
    OptimizeMembership,
    Pass,
    RecognizeReduction,
    SplitInterior,
    SubstituteViews,
    VerifyPlan,
    default_passes,
)
from .trace import PassRecord, PipelineTrace

__all__ = [
    "AccessIR",
    "AxisAccess",
    "NodeSplit",
    "InteriorSplit",
    "PlanIR",
    "PassManager",
    "PassRecord",
    "PipelineTrace",
    "Pass",
    "SubstituteViews",
    "OptimizeMembership",
    "SplitInterior",
    "EliminateBarriers",
    "RecognizeReduction",
    "LicenseDoacross",
    "VerifyPlan",
    "LowerKernels",
    "default_passes",
    "access_spec",
    "compile_plan",
    "CompileFlight",
    "compile_flight",
    "PlanCache",
    "plan_cache",
    "plan_key",
    "enable_plan_cache",
    "plan_cache_info",
    "clear_plan_cache",
    "FusedKernels",
    "KernelCache",
    "kernel_cache",
    "kernel_cache_info",
    "clear_kernel_cache",
    "ProgramIR",
    "ProgramStep",
    "ProgramCache",
    "compile_program",
    "run_program",
    "evaluate_program_reference",
    "program_key",
    "program_cache",
    "program_cache_info",
    "clear_program_cache",
]


def compile_plan(
    clause: Clause,
    decomps: Dict[str, object],
    *,
    successor: Optional[Clause] = None,
    require_read_decomps: bool = True,
    passes: Optional[Sequence[Pass]] = None,
    verify: bool = False,
) -> PlanIR:
    """Compile *clause* through the pass pipeline and return the Plan IR.

    *successor* enables the `eliminate-barriers` pass to analyse the
    following clause; *require_read_decomps* is relaxed by the nd
    shared-memory path, where reads address global memory directly.
    *verify* appends the ``verify-plan`` static-analysis pass: the
    returned IR carries a ``DiagnosticReport`` on ``ir.diagnostics``.

    Compilations through the default pass list are memoized in the
    process-global :data:`~repro.pipeline.cache.plan_cache` on a
    structural key; a hit returns a clone whose trace carries
    ``cache_hit=True``.  Custom *passes* bypass the cache.  Verification
    shares the same key: a verified entry serves unverified lookups (the
    verdict rides along), and a hit on an unverified entry is verified
    on demand, with the report attached back to the cached plan.

    Concurrent misses on one key are *single-flight*: one thread leads
    the compile, every other blocks on
    :data:`~repro.pipeline.cache.compile_flight` and re-reads the cache
    when the leader finishes — N threads hammering one structural key
    run the pass pipeline exactly once.  A leader that raises releases
    without storing (no poison entries); its waiters retry, one of them
    becoming the new leader.
    """
    key = None
    if passes is None:
        key = plan_cache.key_for(
            clause, decomps, successor=successor,
            require_read_decomps=require_read_decomps,
        )
    if key is None:
        return _compile_fresh(clause, decomps, successor,
                              require_read_decomps, passes, verify)
    hit = _cached_hit(key, clause, decomps, successor, verify)
    if hit is not None:
        return hit
    while True:
        ev = compile_flight.acquire(key)
        if ev is None:
            break  # this thread leads the compile for the key
        finished = ev.wait(timeout=_FLIGHT_WAIT)
        hit = _cached_hit(key, clause, decomps, successor, verify)
        if hit is not None:
            return hit
        if not finished:
            # the leader is stuck (or glacially slow): compile
            # independently rather than block forever — store simply
            # overwrites whatever the leader eventually produces
            ir = _compile_fresh(clause, decomps, successor,
                                require_read_decomps, None, verify)
            ir.trace.cache_key = key
            plan_cache.store(key, ir)
            return ir
        # the leader failed (or its entry was already evicted): loop and
        # contend for leadership ourselves
    try:
        ir = _compile_fresh(clause, decomps, successor,
                            require_read_decomps, None, verify)
        ir.trace.cache_key = key
        plan_cache.store(key, ir)
        return ir
    finally:
        compile_flight.release(key)


#: how long a single-flight waiter trusts its leader before compiling
#: independently (seconds) — a safety valve, not a tuning knob
_FLIGHT_WAIT = 60.0


def _cached_hit(key, clause, decomps, successor, verify):
    hit = plan_cache.lookup(key, clause, decomps, successor)
    if hit is not None and verify:
        _verify_plan_hit(hit)
    return hit


def _verify_plan_hit(ir: PlanIR) -> None:
    """Verify a cache hit whose entry was compiled unverified, and
    attach the report to the entry so later hits reuse the verdict."""
    if ir.diagnostics is None:
        PassManager([VerifyPlan()]).run(ir)
        plan_cache.attach_diagnostics(ir.trace.cache_key, ir.diagnostics)


def _compile_fresh(clause, decomps, successor, require_read_decomps,
                   passes, verify) -> PlanIR:
    ir = PlanIR(
        clause=clause,
        decomps=dict(decomps),
        successor=successor,
        require_read_decomps=require_read_decomps,
    )
    run_passes = passes
    if passes is None and verify:
        run_passes = default_passes(verify=True)
    PassManager(run_passes).run(ir)
    return ir


# imported last: the program layer compiles its clauses via compile_plan
from .program import (  # noqa: E402
    ProgramCache,
    ProgramIR,
    ProgramStep,
    clear_program_cache,
    compile_program,
    evaluate_program_reference,
    program_cache,
    program_cache_info,
    program_key,
    run_program,
)
