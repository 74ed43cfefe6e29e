"""Compile-once plan cache.

Every compilation routed through :func:`repro.pipeline.compile_plan`
(which backs ``compile_clause``, ``compile_clause_nd`` and
``compile_clause_nd_dist``) is memoized on a *structural* key: the
clause's expression tree, loop bounds and ordering, plus the
``cache_key()`` of every referenced decomposition.  Recompiling the same
clause against structurally identical decompositions returns the cached
Plan IR — the trace of the returned plan carries ``cache_hit=True`` and
the key itself (``repro compile --explain`` shows ``[plan-cache hit]``).

Structural means *never a false hit*:

* ``ConstantF`` / ``AffineF`` / ``ModularF`` (of those two) access
  functions and separable/projected index maps key by their integers;
  two independently built ``AffineF(1, -1)`` instances hit one entry.
* Opaque parts (``MonotoneF`` closures and a ``ModularF`` of one,
  ``IndirectF`` tables, general maps, non-trivial domain predicates) key
  by *object identity* — the cache entry keeps the object alive, so the
  id can never be reused while the entry exists.  Distinct-but-equivalent
  opaque objects miss, which is merely a lost optimization.
* A decomposition whose ``cache_key()`` returns ``None`` opts the whole
  compilation out of the cache.

Cached entries are shared: on a hit the IR is shallow-cloned with a
fresh :class:`~repro.pipeline.trace.PipelineTrace` (same pass records,
empty note list) so per-run backend notes never accumulate on the
cached plan.  The cache is process-global, thread-safe, LRU-bounded,
and can be disabled (CLI ``--no-plan-cache``).
"""

from __future__ import annotations

import dataclasses
import os
import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..core.clause import Clause
from ..core.expr import BinOp, Const, Expr, LoopIndex, Ref, UnOp
from ..core.ifunc import AffineF, ConstantF, ModularF
from ..core.indexset import TRUE
from ..core.view import ProjectedMap, SeparableMap
from .trace import PipelineTrace

__all__ = [
    "CompileFlight",
    "PlanCache",
    "compile_flight",
    "plan_key",
    "plan_cache",
    "enable_plan_cache",
    "plan_cache_info",
    "clear_plan_cache",
]

_DEFAULT_MAXSIZE = 256


def _env_number(name: str, default, cast=int):
    """The environment knob *name* as a positive number — the one
    reader of every numeric ``REPRO_*`` variable (cache sizes and byte
    budgets, worker and rank counts, the mp timeout).  Unset or
    malformed means *default*; anything below the smallest positive
    value is raised to 1."""
    try:
        value = cast(os.environ.get(name) or "")
    except ValueError:
        return default
    return value if value > 0 else cast(1)


# -- structural keys ---------------------------------------------------------

def _func_key(f) -> tuple:
    """Structural key of a scalar access function (identity for opaque)."""
    if isinstance(f, ConstantF):
        return ("const", f.c)
    if isinstance(f, AffineF):  # includes IdentityF
        return ("affine", f.a, f.c)
    if isinstance(f, ModularF) and isinstance(f.g, (AffineF, ConstantF)):
        return ("mod", _func_key(f.g), f.z, f.d)
    return ("opaque", f)


def _imap_key(imap) -> tuple:
    if isinstance(imap, SeparableMap):
        return ("sep",) + tuple(_func_key(f) for f in imap.funcs)
    if isinstance(imap, ProjectedMap):
        return ("proj", imap.dims) + tuple(_func_key(f) for f in imap.funcs)
    return ("opaque", imap)


def _expr_key(e: Expr) -> tuple:
    if isinstance(e, Ref):
        return ("ref", e.name, _imap_key(e.imap))
    if isinstance(e, Const):
        return ("c", e.value)
    if isinstance(e, LoopIndex):
        return ("i", e.dim)
    if isinstance(e, BinOp):
        return ("bin", e.op, _expr_key(e.left), _expr_key(e.right))
    if isinstance(e, UnOp):
        return ("un", e.op, _expr_key(e.operand))
    return ("opaque", e)


def _clause_key(clause: Clause) -> tuple:
    """The clause's structural key, derived once per clause object
    (clauses are frozen) and kept on it."""
    key = clause.__dict__.get("_structural_key")
    if key is None:
        dom = clause.domain
        pred = (("TRUE",) if dom.predicate is TRUE
                else ("opaque", dom.predicate))
        key = clause.__dict__["_structural_key"] = (
            clause.ordering.value,
            dom.bounds.lower,
            dom.bounds.upper,
            pred,
            _expr_key(clause.lhs),
            _expr_key(clause.rhs),
            None if clause.guard is None else _expr_key(clause.guard),
        )
    return key


def _decomps_key(clause: Clause, decomps: Dict[str, object]) -> Optional[tuple]:
    """Per-array decomposition keys for every array the clause touches.

    Returns ``None`` (uncacheable) when any placed decomposition opts
    out; an array with *no* decomposition (the nd-shared relaxed path)
    keys as ``None`` explicitly, which is still cacheable."""
    items = []
    for name in clause.array_names():
        dec = decomps.get(name)
        if dec is None:
            items.append((name, None))
            continue
        cache_key = getattr(dec, "cache_key", None)
        ck = cache_key() if callable(cache_key) else None
        if ck is None:
            return None
        items.append((name, ck))
    return tuple(items)


def plan_key(
    clause: Clause,
    decomps: Dict[str, object],
    *,
    successor: Optional[Clause] = None,
    require_read_decomps: bool = True,
) -> Optional[tuple]:
    """Structural cache key for one ``compile_plan`` invocation, or
    ``None`` when the inputs opt out of caching.  The returned tuple is
    hashable unless an opaque part is unhashable, which callers detect
    by probing ``hash(key)``."""
    dk = _decomps_key(clause, decomps)
    if dk is None:
        return None
    if successor is None:
        sk = None
    else:
        sdk = _decomps_key(successor, decomps)
        if sdk is None:
            return None
        sk = (_clause_key(successor), sdk)
    return ("plan", _clause_key(clause), dk, sk, bool(require_read_decomps))


# -- the cache ---------------------------------------------------------------

class _StructuralCache:
    """Thread-safe, counted LRU on structural keys (made by
    ``_make_key``): the plan, program, kernel and verify caches, which
    differ only in their keys, their clones, the kernel cache's byte
    budget and what counts as verified."""

    DEFAULT_MAXSIZE = _DEFAULT_MAXSIZE

    def __init__(self, maxsize: Optional[int] = None):
        self.maxsize = (_env_number("REPRO_CACHE_SIZE", self.DEFAULT_MAXSIZE)
                        if maxsize is None else maxsize)
        self.enabled = True
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[tuple, object]" = OrderedDict()
        self._lock = threading.Lock()

    def key_for(self, *args, **kwargs) -> Optional[tuple]:
        """The structural key guarded by an enabled check and a
        hashability probe."""
        if not self.enabled:
            return None
        key = self._make_key(*args, **kwargs)
        if key is None:
            return None
        try:
            hash(key)
        except TypeError:
            return None
        return key

    def _get(self, key: tuple, probe: bool, verify: bool):
        """The entry for *key*, or ``None``.  A *probe* that misses counts
        nothing, and with *verify* an entry without its verdicts is a
        miss: a probe's hit is lookups alone."""
        with self._lock:
            entry = self._entries.get(key)
            if probe and (entry is None
                          or verify and not self._verified(entry)):
                return None
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def lookup(self, key: tuple):
        return self._get(key, False, False)

    def store(self, key: tuple, entry) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._zero()

    def _zero(self) -> None:
        """Reset the counters (lock held)."""
        self.hits = self.misses = self.evictions = 0

    def info(self) -> Dict[str, object]:
        with self._lock:
            return self._info()

    def _info(self) -> Dict[str, object]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "size": len(self._entries),
                "maxsize": self.maxsize, "enabled": self.enabled}


class PlanCache(_StructuralCache):
    """Thread-safe LRU cache of compiled :class:`~repro.pipeline.ir.PlanIR`."""

    _make_key = staticmethod(plan_key)

    @staticmethod
    def _verified(ir) -> bool:
        return ir.diagnostics is not None

    def lookup(self, key: tuple, clause=None, decomps=None, successor=None,
               *, probe=False, verify=False):
        """Return a cloned hit (``trace.cache_hit=True``) or ``None``;
        *probe* and *verify* as in :meth:`_get`.

        When *clause* is given the clone is re-anchored onto the caller's
        clause and ``Ref`` objects (see :func:`_clone_hit`)."""
        ir = self._get(key, probe, verify)
        return None if ir is None else _clone_hit(ir, key, clause, decomps,
                                                 successor)

    def attach_diagnostics(self, key: tuple, report) -> None:
        """Attach a verification report to the cached entry for *key*
        (a hit was verified on demand; future hits reuse the verdict)."""
        if report is None:
            return
        with self._lock:
            ir = self._entries.get(key)
            if ir is not None and ir.diagnostics is None:
                ir.diagnostics = report


def _clone_hit(ir, key: tuple, clause=None, decomps=None, successor=None):
    """Shallow-clone a cached IR with a fresh hit-marked trace.

    Pass records are shared (they are not mutated after compilation);
    the note list is fresh so backend fallback notes recorded while
    *running* one clone never leak into later cache hits.

    When *clause* is the caller's (structurally identical) clause, the
    clone is *re-anchored* onto it: ``ir.clause`` and each access's
    ``ref`` become the caller's objects.  Downstream executors key
    pre-fetched values by ``id(ref)`` while evaluating the clause's
    expression tree, so the plan's refs must be the very objects inside
    the clause the caller holds — the structural key guarantees the
    position-by-position swap is sound.  A caller holding the entry's
    own clause and successor (a memoized translation) has nothing to
    re-anchor: its clone differs from the entry by the trace alone."""
    trace = PipelineTrace(
        label=ir.trace.label,
        records=list(ir.trace.records),
        cache_hit=True,
        cache_key=key,
        diagnostics=ir.diagnostics,
    )
    if clause is None or (clause is ir.clause
                          and successor is ir.successor):
        return dataclasses.replace(ir, trace=trace)
    clone = dataclasses.replace(
        ir,
        clause=clause,
        decomps=dict(decomps) if decomps is not None else dict(ir.decomps),
        successor=successor,
        trace=trace,
    )
    clone.write = dataclasses.replace(ir.write, ref=clause.lhs)
    refs = clause.reads()
    clone.reads = [dataclasses.replace(acc, ref=refs[pos])
                   for pos, acc in enumerate(ir.reads)]
    if ir.reduction is not None:
        # the recognized reduction carries a subtree of the clause —
        # recompute it against the caller's tree (cheap, same outcome)
        from ..codegen.idioms import recognize_reduction

        clone.reduction = recognize_reduction(clause)
    return clone


# -- per-key single-flight ---------------------------------------------------

class CompileFlight:
    """Per-structural-key single-flight guard for the compile path.

    A lock around ``get``/``put`` makes the cache *safe* but not
    *single-compile*: sixteen threads missing on the same key would all
    run the pass pipeline and store sixteen times.  ``compile_plan``
    therefore elects one *leader* per in-flight key; every other thread
    blocks on the leader's event and re-reads the cache once it fires.
    A leader that fails releases without storing, so a failed compile is
    never cached as poison — the next waiter simply becomes the new
    leader and retries.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._events: Dict[tuple, threading.Event] = {}
        self.leaders = 0
        self.waits = 0

    def acquire(self, key: tuple) -> Optional[threading.Event]:
        """Elect: ``None`` means the caller leads (and MUST ``release``);
        otherwise the returned event fires when the leader is done."""
        with self._lock:
            ev = self._events.get(key)
            if ev is None:
                self._events[key] = threading.Event()
                self.leaders += 1
                return None
            self.waits += 1
            return ev

    def release(self, key: tuple) -> None:
        with self._lock:
            ev = self._events.pop(key, None)
        if ev is not None:
            ev.set()

    def info(self) -> Dict[str, int]:
        with self._lock:
            return {"leaders": self.leaders, "waits": self.waits,
                    "inflight": len(self._events)}


#: the process-global compile single-flight used by ``compile_plan``
compile_flight = CompileFlight()

#: the process-global cache used by ``compile_plan``
plan_cache = PlanCache()


def enable_plan_cache(on: bool = True) -> None:
    """Turn the global plan cache on/off (CLI ``--no-plan-cache``).

    The fused-kernel cache rides along: disabling the plan cache means
    "recompile everything", and kernels are part of the compile."""
    plan_cache.enabled = bool(on)
    from .kernels import kernel_cache

    kernel_cache.enabled = bool(on)


def plan_cache_info() -> Dict[str, object]:
    return plan_cache.info()


def clear_plan_cache() -> None:
    """Drop every cached plan *and* the fused kernels attached to them —
    a stale kernel must never run against a re-anchored plan.  If the
    multi-process runtime was ever started, its worker pools (which hold
    installed copies of those kernels) are shut down too."""
    plan_cache.clear()
    from .kernels import kernel_cache

    kernel_cache.clear()
    from .program import program_cache

    program_cache.clear()
    import sys

    runtime = sys.modules.get("repro.runtime")
    if runtime is not None:  # never import the runtime just to clear it
        runtime.shutdown_runtime()
