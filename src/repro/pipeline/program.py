"""Whole-program compilation: the Program IR and its inter-clause passes.

The paper compiles one clause at a time; its motivating workloads
(iterated stencils, multi-statement SPMD programs) are clause
*sequences*.  This module lifts the per-clause Plan IR to a
:class:`ProgramIR`: every clause is compiled through the ordinary pass
pipeline (plan-cached as usual), then three traced inter-clause passes
run over the sequence:

``compile-clauses``
    One :class:`ProgramStep` per clause.  1-D clauses compile with their
    successor so the `eliminate-barriers` proof lands in the per-clause
    trace; d-dimensional clauses route through the relaxed nd path.

``elide-redistribution``
    For every boundary between consecutive clauses (and, for
    ``repeat > 1``, the wrap-around step boundary), compare the
    producer's and consumer's decompositions structurally
    (``cache_key()``).  Agreement means the data is already placed where
    the consumer expects it — no re-placement, and for the mp backend no
    per-clause shared-memory session.

``fuse-clauses``
    Merge adjacent clauses into one fused phase when the barrier between
    them was proven removable (no cross-processor flow/anti/output
    dependence and no intra-clause overlap — the Bernstein conditions
    checked by ``barrier_removable``).  The certifying RACE-analysis
    verdict of both clauses is recorded on the pass trace.

``pipeline-time-loop``
    A ``repeat(steps)`` program compiles its step once.  When every
    boundary elides and the ``swap`` buffer pairs are
    placement-compatible, the whole time loop is *pipelined*: fused/mp
    kernels and the WorkerPool stay hot and buffers swap by name
    (zero-copy env-entry exchange) instead of re-placing memory each
    iteration.

``run_program`` executes the IR on the shared-memory model under the
full backend registry, exactly like single-clause shared runs.  Compiled
programs are memoized in a structural-key LRU (:class:`ProgramCache`)
alongside the plan/kernel/Table I caches.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.clause import Clause, Ordering
from ..decomp.multidim import GridDecomposition
from ..machine.shared import SharedMachine
from . import _verify_plan_hit, compile_plan
from .cache import _clone_hit, _StructuralCache, plan_key
from .trace import PassRecord, PipelineTrace

__all__ = [
    "ProgramStep",
    "ProgramIR",
    "ProgramCache",
    "program_cache",
    "program_key",
    "compile_program",
    "cached_program",
    "run_program",
    "evaluate_program_reference",
    "program_cache_info",
    "clear_program_cache",
]


# ---------------------------------------------------------------------------
# the IR
# ---------------------------------------------------------------------------

@dataclass
class ProgramStep:
    """One compiled clause inside a program."""

    index: int
    clause: Clause
    decomps: Dict[str, object]
    ir: object                      # PlanIR
    nd: bool = False
    #: is a barrier executed after this clause? (False = fused with next)
    barrier_after: bool = True
    #: provisional: the eliminate-barriers proof said the barrier between
    #: this clause and its successor is removable
    fusable_next: bool = False

    @property
    def name(self) -> str:
        return self.clause.name or f"clause{self.index}"

    def plan(self):
        """The step's plan — ``self.ir`` (see :mod:`repro.pipeline.ir`)."""
        return self.ir


@dataclass
class ProgramIR:
    """A compiled clause sequence plus the inter-clause pass facts."""

    steps: List[ProgramStep]
    repeat: int = 1
    #: ((a, b), ...) — env entries exchanged after every iteration
    swap: Tuple[Tuple[str, str], ...] = ()
    pmax: int = 0
    #: fusion groups: lists of step indices, each group one fused phase
    groups: List[List[int]] = field(default_factory=list)
    #: (boundary label, array) pairs whose re-placement was elided
    elided: List[Tuple[object, str]] = field(default_factory=list)
    #: (boundary label, array, reason) — placement changes that survive
    redistributions: List[Tuple[object, str, str]] = field(
        default_factory=list)
    #: repeat > 1 and the whole step is re-placement free: mp may keep
    #: one shared-memory session and the worker pool hot across steps
    pipelined: bool = False
    pipeline_reason: str = ""
    #: per clause, ``(kept, why)`` of the real-process pre-commit barrier
    #: as ``verify_program`` certified it; () = not verified yet
    phase: Tuple[Tuple[bool, str], ...] = ()
    trace: PipelineTrace = field(default_factory=PipelineTrace)
    cache_key: Optional[tuple] = None

    @property
    def clauses(self) -> List[Clause]:
        return [st.clause for st in self.steps]

    def barrier_flags(self) -> List[bool]:
        return [st.barrier_after for st in self.steps]

    def barriers_per_step(self) -> int:
        """Kept barriers one iteration executes (• singleton groups run
        serially and never barrier — legacy program semantics)."""
        count = 0
        for group in self.groups:
            if len(group) == 1 and \
                    self.steps[group[0]].clause.ordering is Ordering.SEQ:
                continue
            count += 1
        return count

    def describe(self) -> str:
        lines = [f"program: {len(self.steps)} clause(s), "
                 f"{len(self.groups)} phase(s), repeat={self.repeat}"]
        for st in self.steps:
            tail = "fused-with-next" if not st.barrier_after else "barrier"
            why = self.phase[st.index][1] if self.phase \
                else "not derived (verify_program derives it)"
            lines.append(f"  {st.index}: {st.name} "
                         f"[{'nd' if st.nd else '1-D'}] -> {tail}; "
                         f"phase barrier {why}")
        lines.append(f"  elided redistributions: {len(self.elided)}; "
                     f"kept: {len(self.redistributions)}")
        if self.repeat > 1:
            state = "pipelined" if self.pipelined else \
                f"not pipelined ({self.pipeline_reason})"
            lines.append(f"  time loop: {state}; swap={list(self.swap)}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# structural keys + program cache
# ---------------------------------------------------------------------------

def program_key(
    clauses: Sequence[Clause],
    decomps_list: Sequence[Dict[str, object]],
    *,
    repeat: int,
    swap: Tuple[Tuple[str, str], ...],
    eliminate_barriers: bool,
    fuse: bool,
    elide: bool,
) -> Optional[tuple]:
    """Structural key of one ``compile_program`` invocation (``None``
    when any clause opts out of plan caching)."""
    keys = []
    for clause, decs in zip(clauses, decomps_list):
        k = plan_key(clause, decs)
        if k is None:
            return None
        keys.append(k)
    return ("prog", tuple(keys), int(repeat), tuple(swap),
            bool(eliminate_barriers), bool(fuse), bool(elide))


class ProgramCache(_StructuralCache):
    """Thread-safe LRU of compiled :class:`ProgramIR` (structural keys,
    eviction-counted, ``REPRO_CACHE_SIZE`` respected)."""

    DEFAULT_MAXSIZE = 64
    _make_key = staticmethod(program_key)

    @staticmethod
    def _verified(pir: ProgramIR) -> bool:
        return all(st.ir.diagnostics is not None for st in pir.steps)

    def lookup(self, key, clauses, decomps_list, *, probe=False,
               verify=False) -> Optional[ProgramIR]:
        """A cloned hit or ``None``; *probe* and *verify* as in
        :meth:`~repro.pipeline.cache._StructuralCache._get`."""
        pir = self._get(key, probe, verify)
        return None if pir is None else _clone_program_hit(
            pir, key, clauses, decomps_list)

    def attach_diagnostics(self, key, reports) -> None:
        """Attach per-step verification reports to the cached entry for
        *key* (a hit was verified on demand; future hits reuse the
        verdicts)."""
        with self._lock:
            pir = self._entries.get(key)
            if pir is None:
                return
            for st, report in zip(pir.steps, reports):
                if st.ir.diagnostics is None:
                    st.ir.diagnostics = report


def _clone_program_hit(pir: ProgramIR, key, clauses,
                       decomps_list) -> ProgramIR:
    """Clone a cached program with a fresh hit-marked trace, re-anchoring
    every step onto the caller's objects: its clause, its successor (the
    caller's next clause) and the caller's decompositions, merged as
    ``_pass_compile_clauses`` merges them.  Executors key pre-fetched
    values by ``Ref`` identity — see the plan cache.  A step whose
    clause and successor already are the caller's keeps its own
    decompositions and gets a fresh trace alone."""
    trace = PipelineTrace(
        label=pir.trace.label,
        records=list(pir.trace.records),
        cache_hit=True,
        cache_key=key,
    )
    steps = []
    for k, (st, clause) in enumerate(zip(pir.steps, clauses)):
        successor, decs = None, decomps_list[k]
        if st.ir.successor is not None:
            successor = clauses[k + 1]
        if clause is st.clause and successor is st.ir.successor:
            steps.append(dataclasses.replace(
                st, ir=_clone_hit(st.ir, st.ir.trace.cache_key)))
            continue
        if successor is not None:
            decs = {**decomps_list[k + 1], **decomps_list[k]}
        ir = _clone_hit(st.ir, st.ir.trace.cache_key, clause, decs,
                        successor)
        steps.append(dataclasses.replace(st, clause=clause, decomps=decs,
                                         ir=ir))
    return dataclasses.replace(pir, steps=steps, trace=trace)


def _verify_program_hit(pir: ProgramIR, key) -> None:
    """``compile_plan``'s rule one level up: a program hit whose entry
    was compiled unverified is verified step by step on demand, and the
    verdicts are attached to the entry (and to the plan cache), so the
    next verified hit runs no pass at all."""
    if program_cache._verified(pir):
        return
    for st in pir.steps:
        _verify_plan_hit(st.ir)
    program_cache.attach_diagnostics(
        key, [st.ir.diagnostics for st in pir.steps])


#: the process-global program cache used by ``compile_program``
program_cache = ProgramCache()


def program_cache_info() -> Dict[str, object]:
    return program_cache.info()


def clear_program_cache() -> None:
    program_cache.clear()


# ---------------------------------------------------------------------------
# the inter-clause passes
# ---------------------------------------------------------------------------

def _is_nd(clause: Clause, decomps: Dict[str, object]) -> bool:
    if clause.domain.dim > 1:
        return True
    return any(isinstance(decomps.get(name), GridDecomposition)
               for name in clause.array_names())


def _dec_key(dec) -> Optional[tuple]:
    if dec is None:
        return ("unplaced",)
    cache_key = getattr(dec, "cache_key", None)
    return cache_key() if callable(cache_key) else None


def _placements_agree(d1, d2) -> bool:
    if d1 is d2:
        return True
    k1, k2 = _dec_key(d1), _dec_key(d2)
    return k1 is not None and k1 == k2


def _compatible_for_barrier_analysis(s1_clause, d1, s2_clause, d2) -> bool:
    """The 1-D barrier proof assumes one placement per array; per-clause
    decomposition dicts must agree structurally on every shared array."""
    for name in set(s1_clause.array_names()) | set(s2_clause.array_names()):
        a, b = d1.get(name), d2.get(name)
        if a is None or b is None:
            if a is not b:
                return False
            continue
        if not _placements_agree(a, b):
            return False
    return True


def _timed(trace: PipelineTrace, name: str, paper: str) -> PassRecord:
    rec = PassRecord(name=name, paper=paper)
    rec._t0 = time.perf_counter()
    trace.add(rec)
    return rec


def _done(rec: PassRecord) -> None:
    rec.wall_ms = (time.perf_counter() - rec._t0) * 1e3
    del rec._t0


def _pass_compile_clauses(pir, clauses, decomps_list, eliminate_barriers,
                          verify) -> None:
    rec = _timed(pir.trace, "compile-clauses", "§2.6-2.10 per clause")
    for k, (clause, decs) in enumerate(zip(clauses, decomps_list)):
        nd = _is_nd(clause, decs)
        successor = None
        merged = decs
        if eliminate_barriers and not nd and k + 1 < len(clauses):
            nxt, ndecs = clauses[k + 1], decomps_list[k + 1]
            if (not _is_nd(nxt, ndecs)
                    and _compatible_for_barrier_analysis(
                        clause, decs, nxt, ndecs)):
                successor = nxt
                merged = {**ndecs, **decs}
        ir = compile_plan(clause, merged, successor=successor,
                          require_read_decomps=not nd, verify=verify)
        step = ProgramStep(index=k, clause=clause, decomps=merged, ir=ir,
                           nd=nd,
                           fusable_next=(successor is not None
                                         and not ir.barrier_needed))
        pir.steps.append(step)
        rec.notes.append(
            f"clause {k} ({step.name}): {'nd' if nd else '1-D'}"
            + (" [plan-cache hit]" if ir.trace.cache_hit else "")
        )
    pir.pmax = max(st.ir.pmax for st in pir.steps)
    rec.rewrites = len(pir.steps)
    _done(rec)


def _boundary_elision(pir, rec, label, producer: ProgramStep,
                      consumer: ProgramStep, rename=None) -> None:
    """Compare placements across one boundary; *rename* maps a consumer
    array name back to the producer-side buffer holding its data (the
    wrap-around step boundary after a ``swap``)."""
    for name in sorted(set(consumer.clause.array_names())):
        src = rename.get(name, name) if rename else name
        if src not in producer.decomps:
            continue
        d1, d2 = producer.decomps[src], consumer.decomps.get(name)
        via = f" (via swap {src}->{name})" if src != name else ""
        if _placements_agree(d1, d2):
            pir.elided.append((label, name))
            rec.notes.append(
                f"boundary {label}: redistribution of {name!r} elided"
                f"{via} — producer/consumer placements agree ({d1!r})")
        else:
            reason = f"{d1!r} -> {d2!r}"
            pir.redistributions.append((label, name, reason))
            rec.notes.append(
                f"boundary {label}: {name!r} changes placement"
                f"{via} ({reason}); re-placed at the barrier")


def _pass_elide_redistribution(pir, elide: bool) -> None:
    rec = _timed(pir.trace, "elide-redistribution",
                 "Table I placement agreement across clause boundaries")
    if not elide:
        rec.notes.append("disabled (elide=False): every boundary re-places")
        for k in range(len(pir.steps) - 1):
            pir.redistributions.append(
                (f"{k}->{k + 1}", "*", "elision disabled"))
        _done(rec)
        return
    for k in range(len(pir.steps) - 1):
        _boundary_elision(pir, rec, f"{k}->{k + 1}",
                          pir.steps[k], pir.steps[k + 1])
    if pir.repeat > 1:
        rename = {}
        for a, b in pir.swap:
            rename[a], rename[b] = b, a
        _boundary_elision(pir, rec, "step", pir.steps[-1], pir.steps[0],
                          rename=rename)
    rec.rewrites = len(pir.elided)
    if not rec.notes:
        rec.notes.append("no inter-clause boundaries")
    _done(rec)


def _race_verdict(step: ProgramStep) -> str:
    ir = step.ir
    if ir.diagnostics is None:
        from ..analysis import verify_ir

        ir.diagnostics = verify_ir(ir)
    races = sorted({d.code for d in ir.diagnostics.diagnostics
                    if d.code.startswith("RACE")})
    if races:
        return f"{step.name}: {', '.join(races)}"
    return f"{step.name}: RACE-clean (no RACE* findings)"


def _pass_fuse_clauses(pir, fuse: bool) -> None:
    rec = _timed(pir.trace, "fuse-clauses",
                 "§2.9 fn.1 barrier elimination / Bernstein conditions")
    for k in range(len(pir.steps) - 1):
        st, nxt = pir.steps[k], pir.steps[k + 1]
        if not fuse:
            rec.notes.append(f"boundary {k}->{k + 1}: barrier kept "
                             "(fusion disabled)")
            continue
        if st.fusable_next:
            st.barrier_after = False
            rec.rewrites += 1
            rec.notes.append(
                f"boundary {k}->{k + 1}: fused {st.name}+{nxt.name} — no "
                "cross-processor flow/anti/output dependence and no "
                "intra-clause overlap (eliminate-barriers proof); "
                f"RACE verdict: {_race_verdict(st)}; {_race_verdict(nxt)}")
        else:
            why = ("sequential (•) clause" if (
                st.clause.ordering is Ordering.SEQ
                or nxt.clause.ordering is Ordering.SEQ)
                else "nd clause (barrier analysis is 1-D)" if (st.nd or nxt.nd)
                else "cross-processor dependence or overlap")
            rec.notes.append(
                f"boundary {k}->{k + 1}: barrier kept ({why})")
    # group clauses into fused runs ending at each kept barrier
    current: List[int] = []
    for st in pir.steps:
        current.append(st.index)
        if st.barrier_after:
            pir.groups.append(current)
            current = []
    if current:
        pir.groups.append(current)
    _done(rec)


def _pass_pipeline_time_loop(pir) -> None:
    rec = _timed(pir.trace, "pipeline-time-loop",
                 "compile the step once; swap buffers, keep kernels hot")
    if pir.repeat <= 1:
        pir.pipeline_reason = "repeat=1 (nothing to pipeline)"
        rec.notes.append(pir.pipeline_reason)
        _done(rec)
        return
    union: Dict[str, object] = {}
    for st in pir.steps:
        for name, dec in st.decomps.items():
            union.setdefault(name, dec)
    reasons = []
    for a, b in pir.swap:
        da, db = union.get(a), union.get(b)
        if da is None or db is None:
            reasons.append(f"swap pair ({a},{b}): unknown array")
            continue
        if getattr(da, "n", None) != getattr(db, "n", None):
            reasons.append(f"swap pair ({a},{b}): sizes differ")
        elif not _placements_agree(da, db):
            reasons.append(
                f"swap pair ({a},{b}): placements differ ({da!r} vs {db!r})")
        else:
            rec.notes.append(
                f"swap ({a}<->{b}): placement-compatible ({da!r}) — "
                "buffers exchange by name, zero-copy, no re-placement")
    if pir.redistributions:
        label, name, _ = pir.redistributions[0]
        reasons.append(
            f"{len(pir.redistributions)} redistribution boundary(ies) "
            f"survive elision (first: {name!r} at {label})")
    pir.pipelined = not reasons
    pir.pipeline_reason = "; ".join(reasons)
    if pir.pipelined:
        rec.rewrites = 1
        rec.notes.append(
            f"repeat({pir.repeat}): step compiled once; fused/mp kernels "
            "and the worker pool stay hot; buffers swap after every "
            "iteration (including the last)")
    else:
        rec.notes.append(f"not pipelined: {pir.pipeline_reason} — "
                         "the time loop re-drives clauses per step")
    _done(rec)


# ---------------------------------------------------------------------------
# compile_program
# ---------------------------------------------------------------------------

def _normalize_decomps(decomps, nclauses: int) -> List[Dict[str, object]]:
    if isinstance(decomps, dict):
        return [decomps] * nclauses
    out = [dict(d) for d in decomps]
    if len(out) != nclauses:
        raise ValueError(
            f"per-clause decomposition list has {len(out)} entries "
            f"for {nclauses} clauses")
    return out


def _program_lookup(program, decomps, repeat, swap, eliminate_barriers,
                    fuse, elide, verify, probe=False):
    """``compile_program``'s hit path, shared with :func:`cached_program`:
    the normalized inputs, the key and the (verified) hit or ``None``."""
    clauses = list(program)
    if not clauses:
        raise ValueError("cannot compile an empty program")
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    swap = tuple((str(a), str(b)) for a, b in swap)
    seen = set()
    for pair in swap:
        for name in pair:
            if name in seen:
                raise ValueError(f"array {name!r} appears in two swap pairs")
            seen.add(name)
    decomps_list = _normalize_decomps(decomps, len(clauses))
    key = program_cache.key_for(
        clauses, decomps_list, repeat=repeat, swap=swap,
        eliminate_barriers=eliminate_barriers, fuse=fuse, elide=elide)
    hit = None
    if key is not None:
        hit = program_cache.lookup(key, clauses, decomps_list, probe=probe,
                                   verify=verify)
        if hit is not None and verify:
            _verify_program_hit(hit, key)
    return clauses, decomps_list, swap, key, hit


def cached_program(program, decomps, *, repeat: int = 1,
                   swap: Sequence[Tuple[str, str]] = (),
                   verify: bool = False) -> Optional[ProgramIR]:
    """What :func:`compile_program` would return from its cache, or
    ``None`` where it would compile or verify: a miss counts nothing.
    The lookup for a caller that must not compute (the serve loop)."""
    return _program_lookup(program, decomps, repeat, swap, True, True, True,
                           verify, probe=True)[4]


def compile_program(
    program,
    decomps,
    *,
    repeat: int = 1,
    swap: Sequence[Tuple[str, str]] = (),
    eliminate_barriers: bool = True,
    fuse: bool = True,
    elide: bool = True,
    verify: bool = False,
) -> ProgramIR:
    """Compile a clause sequence (a :class:`~repro.core.clause.Program`
    or any clause iterable) into a :class:`ProgramIR`.

    *decomps* is either one dict (every clause placed identically — the
    common case, every boundary elides) or a per-clause sequence of
    dicts (placement may change between clauses: a *redistribution
    boundary*).  ``repeat``/``swap`` express a time loop: the step runs
    ``repeat`` times and the named env-entry pairs are exchanged after
    every iteration (double buffering without copies).

    Compiled programs are memoized on a structural key; a hit returns a
    clone whose program trace carries ``cache_hit=True`` and whose
    per-clause IRs are re-anchored onto the caller's clause objects.
    *verify* follows ``compile_plan``'s rule: a verified entry serves
    both kinds of call, and a hit on an unverified entry is verified on
    demand, with the per-step verdicts attached back to the entry.
    """
    clauses, decomps_list, swap, key, hit = _program_lookup(
        program, decomps, repeat, swap, eliminate_barriers, fuse, elide,
        verify)
    if hit is not None:
        return hit
    label = f"program[{len(clauses)}]"
    if repeat > 1:
        label += f" repeat({repeat})"
    pir = ProgramIR(steps=[], repeat=repeat, swap=swap,
                    trace=PipelineTrace(label=label))
    _pass_compile_clauses(pir, clauses, decomps_list, eliminate_barriers,
                          verify)
    _pass_elide_redistribution(pir, elide)
    _pass_fuse_clauses(pir, fuse and eliminate_barriers)
    _pass_pipeline_time_loop(pir)
    if key is not None:
        pir.cache_key = key
        pir.trace.cache_key = key
        program_cache.store(key, pir)
    return pir


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _run_step(st: ProgramStep, machine: SharedMachine, backend: str,
              strict: bool, processes, timeout) -> None:
    from ..codegen.shared_tmpl import run_shared

    run_shared(st.ir, machine.env, machine, backend=backend, strict=strict,
               processes=processes, timeout=timeout)


def _run_group_scalar(steps: List[ProgramStep],
                      machine: SharedMachine) -> None:
    """The scalar fused-group walk, oracle of the kernel tier's
    clause-major one: node-major, each node committing its own writes
    per clause as it goes (the §2.9 phase of each clause, one node at a
    time) — legal exactly because the barrier proof showed no datum
    crosses a processor across (or within) the fused phases."""
    from ..codegen.shared_tmpl import shared_phase

    phases = [shared_phase(st.ir, machine) for st in steps]
    for p in range(machine.pmax):
        for phase in phases:
            machine.run_sequential_phase(phase, order=(p,))
    for p in range(machine.pmax):
        machine.stats[p].barriers += 1


def _run_group(pir: ProgramIR, group: List[int], machine: SharedMachine,
               backend: str, strict: bool) -> None:
    from ..backends import dispatch_group

    steps = [pir.steps[k] for k in group]
    if not dispatch_group(backend, [st.ir for st in steps], machine,
                          strict, pir.trace):
        _run_group_scalar(steps, machine)


def run_program(
    pir: ProgramIR,
    env: Dict[str, np.ndarray],
    *,
    backend: str = "scalar",
    strict: bool = False,
    processes: Optional[int] = None,
    timeout: Optional[float] = None,
    machine: Optional[SharedMachine] = None,
) -> Tuple[SharedMachine, int]:
    """Execute a compiled program on the shared-memory machine; returns
    ``(machine, barriers)`` — the barrier count covers all iterations.

    The full backend registry applies, exactly as for single clauses
    (``docs/execution.md``, "Backend tiers").  ``mp`` and ``mpi`` first
    try their whole-program form — one shared-memory session / one MPI
    world across every clause and iteration when the program is
    pipelined — and fall back to driving clauses individually, with a
    trace note, when the program has none.
    """
    from ..backends import dispatch_program

    if machine is None:
        machine = SharedMachine(pir.pmax, env)
    result, backend = dispatch_program(
        backend, pir, machine, strict=strict, processes=processes,
        timeout=timeout)
    if result is not None:
        return result
    barriers = 0
    genv = machine.env
    for _step in range(pir.repeat):
        for group in pir.groups:
            if len(group) == 1:
                st = pir.steps[group[0]]
                if st.clause.ordering is Ordering.SEQ:
                    _run_step(st, machine, "scalar", False, None, None)
                    continue
                _run_step(st, machine, backend, strict, processes, timeout)
                barriers += 1
            else:
                _run_group(pir, group, machine, backend, strict)
                barriers += 1
        for a, b in pir.swap:
            genv[a], genv[b] = genv[b], genv[a]
    return machine, barriers


def evaluate_program_reference(
    pir: ProgramIR, env: Dict[str, np.ndarray]
) -> Dict[str, np.ndarray]:
    """Sequential reference semantics of a program IR: clauses in order,
    ``repeat`` iterations, swap after every iteration."""
    from ..core.evaluator import evaluate_clause

    out = {k: np.asarray(v, dtype=np.float64).copy()
           for k, v in env.items()}
    for _ in range(pir.repeat):
        for st in pir.steps:
            evaluate_clause(st.clause, out)
        for a, b in pir.swap:
            out[a], out[b] = out[b], out[a]
    return out
