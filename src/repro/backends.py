"""Execution-backend registry and the one dispatcher.

One table, :data:`TIERS`, says everything there is to know about a
``backend=`` name: what it is, which tier it falls to when a plan has no
form on it, the preconditions of running it (as data — ``//`` ordering,
replicated write, pre-placed machine, availability probe), and where its
runners live.  The CLI, the ``run_*`` entry points and ``run_program``
all read this table, so an unknown name fails the same way everywhere (a
one-line error listing the valid backends), an unavailable optional
dependency (``mpi`` → mpi4py) is reported the same way everywhere, and
every fallback hop leaves exactly one trace note::

    backend='X' fell back to the Y path: why

Every chain ends ``… → fused → scalar``; ``scalar`` is the caller's own
reference template.  ``docs/execution.md`` renders the table.

Target and transport are parameters of one computation, not code paths:
:func:`dispatch` runs one clause (shared or distributed flavor),
:func:`dispatch_program` tries the whole-program forms of the
real-process tiers, :func:`dispatch_group` runs a fused clause group on
the kernel tier.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from .core.clause import Ordering

__all__ = [
    "BACKENDS",
    "TIERS",
    "BackendAvailability",
    "UnknownBackendError",
    "availability_snapshot",
    "backend_availability",
    "backend_names",
    "dispatch",
    "dispatch_group",
    "dispatch_program",
    "validate_backend",
]


class UnknownBackendError(ValueError):
    """A ``backend=`` name not present in the registry."""


# ---------------------------------------------------------------------------
# requests, preconditions, tiers
# ---------------------------------------------------------------------------

class Run(NamedTuple):
    """One dispatch request, as every precondition and runner sees it."""

    flavor: str                 # "shared" | "dist" | "program"
    ir: object                  # PlanIR (ProgramIR for "program")
    env: object
    machine: object             # dist: the caller's pre-placed machine
    strict: bool = False
    model: object = None
    processes: Optional[int] = None
    timeout: Optional[float] = None


class Need(NamedTuple):
    """One precondition of a tier: a request of one of *flavors* for
    which *unmet* holds skips the tier, with *why* on the trace."""

    flavors: Tuple[str, ...]
    unmet: Callable[[Run], bool]
    why: str


class Impl(NamedTuple):
    """A tier's resolved code: runner per flavor, and the exception
    types that mean "this plan has no form here"."""

    no_form: tuple
    run: Dict[str, Callable[[Run], object]]


class Tier(NamedTuple):
    name: str
    doc: str
    falls_to: Optional[str]
    #: imports the tier's modules and returns its :class:`Impl`; called
    #: once, on the first request that reaches the tier
    load: Optional[Callable[[], Impl]] = None
    needs: Tuple[Need, ...] = ()
    #: consult :func:`backend_availability` before anything else
    probed: bool = False
    #: what the tier calls its whole-program form ("" = it has none)
    program: str = ""


def _replicated(r: Run) -> bool:
    return r.ir.write.replicated


_SERIAL = Need(("shared",),
               lambda r: r.ir.clause.ordering is not Ordering.PAR,
               "sequential (•) clause is a serial chain")
#: the kernel tiers leave a replicated write to the scalar template
_BROADCAST = Need(("dist",), _replicated,
                  "replicated write (per-copy broadcast)")


def _owns_placement(who: str) -> Tuple[Need, ...]:
    return (
        Need(("dist",), lambda r: r.machine is not None,
             f"a pre-placed machine was supplied; the {who} owns its own "
             "placement"),
        Need(("dist",), _replicated,
             "replicated write is a per-copy broadcast"),
    )


def _process_impl(tier: str) -> Impl:
    """A real-process tier: one set of entries, its launch a parameter."""
    from .runtime.exec import (
        launch_of,
        run_distributed_mp,
        run_program_mp,
        run_shared_mp,
    )

    def opts(r: Run) -> dict:
        return {"strict": r.strict, "processes": r.processes,
                "timeout": r.timeout, "launch": tier}

    return Impl(launch_of(tier).no_form, {
        "shared": lambda r: run_shared_mp(r.ir, r.env, r.machine, **opts(r)),
        "dist": lambda r: run_distributed_mp(r.ir, r.env, **opts(r)),
        "program": lambda r: run_program_mp(r.ir, r.machine, **opts(r)),
    })


def _load_fused() -> Impl:
    from .machine.fused import FUSED

    return Impl((FUSED.no_form,), {
        "shared": lambda r: FUSED.run_shared(r.ir, r.env, r.machine,
                                             r.strict),
        "dist": lambda r: FUSED.run_distributed(r.ir, r.env, r.machine,
                                                r.model, r.strict),
        "group": FUSED.run_group,
    })


#: name -> tier, in increasing order of specialization
TIERS: "OrderedDict[str, Tier]" = OrderedDict((t.name, t) for t in (
    Tier("scalar", "per-element reference templates (paper §2.9/§2.10)",
         None),
    Tier("fused", "compile-once fused node kernels, in-process",
         "scalar", _load_fused, (_SERIAL, _BROADCAST)),
    Tier("mp", "multi-process runtime: fused kernels on real OS processes",
         "fused", lambda: _process_impl("mp"),
         _owns_placement("mp runtime"),
         program="pipelining"),
    Tier("mpi", "multi-node SPMD under mpiexec: nonblocking point-to-point "
                "messages over a Cartesian process grid (falls back to "
                "fused when mpi4py is absent)",
         "fused", lambda: _process_impl("mpi"),
         _owns_placement("MPI backend"),
         probed=True, program="execution"),
))

#: name -> one-line description (the CLI's listing)
BACKENDS: "OrderedDict[str, str]" = OrderedDict(
    (t.name, t.doc) for t in TIERS.values())


@lru_cache(maxsize=None)
def _impl(tier: str) -> Impl:
    """The tier's code, imported on the first request that reaches it."""
    return TIERS[tier].load()


# ---------------------------------------------------------------------------
# availability
# ---------------------------------------------------------------------------

class BackendAvailability(NamedTuple):
    """One backend's probed availability."""

    backend: str
    available: bool
    mode: str       # "builtin" | the probe's mode ("mpi4py", "stub", ...)
    reason: str     # one-line availability note (the fallback message)


def backend_availability(backend: str) -> BackendAvailability:
    """Probe whether *backend* can actually run in this process.

    In-process backends are always available ("builtin"); optional-
    dependency backends delegate to their cached probe.  The ``reason``
    string is what the dispatcher puts on the trace when falling back.
    """
    if backend == "mpi":
        from .mpi.support import mpi_support

        s = mpi_support()
        return BackendAvailability("mpi", s.available, s.mode, s.reason)
    validate_backend(backend)
    return BackendAvailability(backend, True, "builtin",
                               "always available (in-process)")


def availability_snapshot() -> "OrderedDict[str, dict]":
    """Every backend's availability as plain dicts (benchmark metadata,
    ``repro calibrate`` output)."""
    snap = OrderedDict(
        (name, backend_availability(name)._asdict()) for name in BACKENDS)
    # the retired ``native`` tier keeps one row, for its only reader:
    # benchmarks/ledger/runner.provenance records it as unmeasured.  The
    # ledger change that stops reading it (ROADMAP 9(c)) deletes the row.
    snap["native"] = BackendAvailability(
        "native", False, "retired",
        "retired: the njit node-kernel tier was removed; fused runs the "
        "same kernels")._asdict()
    return snap


def backend_names() -> Tuple[str, ...]:
    """The valid backend names."""
    return tuple(BACKENDS)


def validate_backend(backend: str, context: Optional[str] = None) -> str:
    """Return *backend* if known; raise otherwise.

    The exception message is a single line naming the valid choices —
    callers surface it verbatim (the CLI turns it into ``error: ...``).
    """
    names = backend_names()
    if backend in names:
        return backend
    where = f" for {context}" if context else ""
    raise UnknownBackendError(
        f"unknown backend {backend!r}{where}; valid backends: "
        + ", ".join(names)
    )


# ---------------------------------------------------------------------------
# the dispatcher
# ---------------------------------------------------------------------------

def _hop(tier: Tier, r: Run) -> Optional[Tuple[str, str]]:
    """``(next tier, trace note)`` when a precondition of *tier* is
    unmet for *r*; ``None`` when the tier may run."""
    if tier.probed:
        av = backend_availability(tier.name)
        if not av.available:
            return tier.falls_to, _fell_back(tier.name, tier.falls_to, r,
                                             av.reason)
    for need in tier.needs:
        if r.flavor in need.flavors and need.unmet(r):
            return tier.falls_to, _fell_back(tier.name, tier.falls_to, r,
                                             need.why)
    return None


def _fell_back(tier: str, target: str, r: Run, why) -> str:
    """The one note formatter (tests and the ledger's fallback detector
    grep these strings)."""
    what = ("template" if target == "scalar" and r.flavor == "dist"
            else "path")
    return f"backend={tier!r} fell back to the {target} {what}: {why}"


@lru_cache(maxsize=None)
def _deadlock():
    """``(DeadlockError, annotate_deadlock)``, imported once."""
    from .analysis import annotate_deadlock
    from .machine.scheduler import DeadlockError

    return DeadlockError, annotate_deadlock


def dispatch(backend: str, flavor: str, ir, env, machine, scalar, *,
             context: str, strict: bool = False, model=None,
             processes: Optional[int] = None,
             timeout: Optional[float] = None):
    """Run one compiled clause under *backend*: walk the tier chain from
    *backend* — skip a tier whose precondition is unmet, run it
    otherwise, fall to the next when the plan has no form on it — and
    end at the caller's *scalar* template.  Every hop is one note on the
    plan's trace; a simulator :class:`DeadlockError` from any tier
    leaves citing the static COMM/BND/SCHED verdict.  Returns the
    machine the tier that ran produced."""
    validate_backend(backend, context)
    r = Run(flavor, ir, env, machine, strict, model, processes, timeout)
    deadlock_error, annotate = _deadlock()
    tier = backend
    try:
        while tier != "scalar":
            t = TIERS[tier]
            hop = _hop(t, r)
            if hop is None:
                impl = _impl(tier)
                try:
                    return impl.run[flavor](r)
                except impl.no_form as err:
                    hop = t.falls_to, _fell_back(tier, t.falls_to, r, err)
            tier, note = hop
            ir.trace.note(note)
        return scalar()
    except deadlock_error as err:
        annotate(err, ir)
        raise


def dispatch_program(backend: str, pir, machine, *, strict: bool = False,
                     processes: Optional[int] = None,
                     timeout: Optional[float] = None):
    """Try the whole-program form of *backend* (one session or world
    across every clause and iteration — the real-process tiers have
    one).  Returns ``(result, tier)``: *result* is ``None`` when the
    caller must drive the clauses itself, each under *tier*."""
    validate_backend(backend, context="run_program")
    r = Run("program", pir, machine.env, machine, strict, None, processes,
            timeout)
    tier = backend
    while True:
        t = TIERS[tier]
        hop = _hop(t, r)
        if hop is not None:
            tier, note = hop
            pir.trace.note(note)
            continue
        if not t.program:
            return None, tier
        impl = _impl(tier)
        try:
            return impl.run["program"](r), tier
        except impl.no_form as err:
            pir.trace.note(
                f"backend={tier!r} whole-program {t.program} unavailable "
                f"({err}); driving clauses individually")
            return None, tier


def dispatch_group(backend: str, irs, machine, strict: bool, trace) -> bool:
    """Run a fused clause group on the ``fused`` walk — every non-scalar
    backend starts there (only the kernel tier has one).  ``False``
    leaves the group to the caller's scalar walk, memory untouched."""
    if backend == "scalar":
        return False
    fused = _impl("fused")
    try:
        fused.run["group"](irs, machine, strict)
        return True
    except fused.no_form:
        trace.note("fused clause group fell back to the scalar walk "
                   "(a clause in the group has no shared kernels)")
        return False
