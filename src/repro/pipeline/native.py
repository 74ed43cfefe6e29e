"""Native-tier node kernels: numba-njit compilation of fused kernels.

The fused backend (:mod:`repro.pipeline.kernels`) already moved every
piece of membership/placement arithmetic to compile time — what remains
per node per step is one Python-dispatched NumPy expression (gather,
fused ufunc line, scatter).  On large grids and 1000-step pipelined
loops the *interpreter*, not the hardware, is the bottleneck.  This
module renders the same kernel — guard + RHS + scatter over flat arrays
and precomputed index vectors — as a **scalar loop** an ``@njit``
compiler turns into native code with no Python objects in the hot path:

.. code-block:: python

    def _kernel(_i, _r, _lanes, _scatter, _out):
        _m = 0
        for _t in range(_scatter.shape[0]):
            _l = _lanes[_t]
            if (_r[2, _l] > 0.5):
                _out[_scatter[_t]] = ((_r[0, _l] * 0.5) + _r[1, _l])
                _m += 1
        return _m

One fixed signature — ``_i`` the stacked membership index vectors
(``int64[ndim, n]``), ``_r`` the stacked read value rows
(``float64[nreads, n]``), ``_lanes`` the lane subset to run (interior or
boundary), ``_scatter`` the flat store keys, ``_out`` the raveled write
buffer — means exactly **one JIT compile per clause source**, shared by
the shared/distributed flavors, every lane set, and every step of a
pipelined loop.  The dispatcher is built lazily by :func:`ensure_native`
and stored on the plan's :class:`~repro.pipeline.kernels.FusedKernels`
entry, so it lives and dies with the kernel cache: a warm structural-key
recompile skips codegen *and* JIT, and ``clear_plan_cache()`` (or an LRU
eviction) disposes the dispatcher alongside the fused tier.

Availability is decided by one cached probe, :func:`native_support` —
the registry, CLI, executors, mp workers and tests all route through it
instead of scattering ``import numba`` try/excepts:

* numba importable -> ``mode="njit"`` (the real native tier);
* ``REPRO_NO_NATIVE=1`` -> unavailable (force the fused fallback, e.g.
  in CI jobs asserting the degradation path);
* ``REPRO_NATIVE_INTERP=1`` -> ``mode="interp"``: the generated scalar
  loop runs as plain exec-compiled Python.  Orders of magnitude slower —
  a *testing* knob that lets the full native stack (codegen, executors,
  dispatch, cache lifecycle) be exercised bit-for-bit on machines
  without numba.

Where support is absent or a kernel has no native form (sequential
clauses, replicated writes, irregular layouts — all already fused
fallbacks — plus unrenderable expressions and non-contiguous buffers),
every ``backend="native"`` entry point degrades to the fused tier with a
trace note; it is never an error.

Float semantics are preserved bit-for-bit: the scalar loop evaluates the
same IEEE-754 double expression tree in the same order as the fused
NumPy line (``min``/``max`` render to the NaN-propagating
``np.minimum``/``np.maximum``; ``and``/``or`` to their non-short-circuit
``!= 0`` forms), which is what lets ``TestAllBackendsAgree`` require
exact equality with every other backend.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from ..core.expr import BinOp, Const, LoopIndex, Ref, UnOp

__all__ = [
    "NativeSupport",
    "native_support",
    "reset_native_support",
    "NativeBuildError",
    "NativeKernels",
    "render_native_source",
    "ensure_native",
    "dispose_native",
    "native_cache_info",
    "reset_native_stats",
]

#: the one njit signature every generated kernel compiles under
NATIVE_SIGNATURE = ("int64(int64[:, ::1], float64[:, ::1], int64[::1], "
                    "int64[::1], float64[::1])")

#: minimum numba the ``native`` extra pins (older wheels miss typed-tuple
#: fixes the generated kernels rely on)
_MIN_NUMBA = (0, 59)


class NativeBuildError(ValueError):
    """The plan has no native-kernel specialization (reason in
    ``args[0]``); callers fall back to the fused tier with a trace
    note — never an error."""


# ---------------------------------------------------------------------------
# the support probe
# ---------------------------------------------------------------------------

class NativeSupport(NamedTuple):
    """Result of the cached numba probe."""

    available: bool
    mode: str           # "njit" | "interp" | "none"
    reason: str         # human-readable availability note
    version: Optional[str] = None


_support: Optional[NativeSupport] = None
_support_lock = threading.Lock()


def _probe() -> NativeSupport:
    if os.environ.get("REPRO_NO_NATIVE"):
        return NativeSupport(False, "none",
                             "disabled by REPRO_NO_NATIVE")
    if os.environ.get("REPRO_NATIVE_INTERP"):
        return NativeSupport(True, "interp",
                             "REPRO_NATIVE_INTERP: generated kernels run "
                             "as exec-compiled Python (testing mode)")
    try:
        import numba
    except ImportError as e:
        return NativeSupport(
            False, "none",
            f"numba unavailable ({e}); install the 'native' extra")
    version = getattr(numba, "__version__", "0")
    try:
        parts = tuple(int(x) for x in version.split(".")[:2])
    except ValueError:
        parts = _MIN_NUMBA
    if parts < _MIN_NUMBA:
        return NativeSupport(
            False, "none",
            f"numba {version} is older than the supported "
            f">={'.'.join(map(str, _MIN_NUMBA))}", version)
    return NativeSupport(True, "njit", f"numba {version}", version)


def native_support() -> NativeSupport:
    """The single cached probe for numba availability.

    Registry, CLI, executors, mp workers and tests all consult this —
    never ``import numba`` directly.  The result is cached for the
    process; :func:`reset_native_support` re-probes (tests flip the
    ``REPRO_NO_NATIVE`` / ``REPRO_NATIVE_INTERP`` knobs)."""
    global _support
    sup = _support
    if sup is None:
        with _support_lock:
            sup = _support
            if sup is None:
                sup = _support = _probe()
    return sup


def reset_native_support() -> None:
    """Drop the cached probe result (re-reads env on next call)."""
    global _support
    with _support_lock:
        _support = None


# ---------------------------------------------------------------------------
# scalar-loop codegen
# ---------------------------------------------------------------------------

def _render_scalar(expr, posmap: Dict[int, int]) -> str:
    """njit-safe scalar source: loop dim *d* at lane ``_t`` is
    ``_i[d, _t]``; read *k* at full-lane ``_l`` is ``_r[k, _l]``.

    NumPy elementwise semantics are preserved exactly: ``min``/``max``
    propagate NaN (``np.minimum``/``np.maximum``), ``and``/``or`` are
    the non-short-circuit logical forms."""
    from ..codegen.exprsrc import _BINOP_PY

    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, LoopIndex):
        return f"_i[{expr.dim}, _t]"
    if isinstance(expr, Ref):
        return f"_r[{posmap[id(expr)]}, _l]"
    if isinstance(expr, BinOp):
        left = _render_scalar(expr.left, posmap)
        right = _render_scalar(expr.right, posmap)
        if expr.op == "min":
            return f"_np.minimum({left}, {right})"
        if expr.op == "max":
            return f"_np.maximum({left}, {right})"
        if expr.op == "and":
            return f"(({left}) != 0 and ({right}) != 0)"
        if expr.op == "or":
            return f"(({left}) != 0 or ({right}) != 0)"
        return f"({left} {_BINOP_PY[expr.op]} {right})"
    if isinstance(expr, UnOp):
        inner = _render_scalar(expr.operand, posmap)
        if expr.op == "abs":
            return f"abs({inner})"
        if expr.op == "not":
            return f"(not ({inner} != 0))"
        return f"(-{inner})"
    raise NativeBuildError(
        f"no scalar source for expression node {type(expr).__name__}")


def render_native_source(clause) -> str:
    """Generate the njit-compilable scalar-loop kernel source for one
    clause (guard folded into the loop; returns the store count)."""
    posmap = {id(ref): pos for pos, ref in enumerate(clause.reads())}
    rhs = _render_scalar(clause.rhs, posmap)
    lines = [
        f"# native (njit) kernel for clause {clause.name!r}",
        f"#   {clause!r}",
        "# _i[d, t]: membership index of loop dim d at lane t",
        "# _r[k, l]: read k's value at full lane l (= _lanes[t])",
        "# _scatter[t]: flat store key into the raveled write buffer",
        "# returns the number of stores (guard-filtered)",
        "",
        "def _kernel(_i, _r, _lanes, _scatter, _out):",
        "    _m = 0",
        "    for _t in range(_scatter.shape[0]):",
        "        _l = _lanes[_t]",
    ]
    store = [f"_out[_scatter[_t]] = {rhs}",
             "_m += 1"]
    if clause.guard is not None:
        guard = _render_scalar(clause.guard, posmap)
        lines.append(f"        if {guard}:")
        lines += [f"            {ln}" for ln in store]
    else:
        lines += [f"        {ln}" for ln in store]
    lines += ["    return _m"]
    return "\n".join(lines) + "\n"


def compile_native_entry(source: str) -> Tuple[Callable, float]:
    """Compile generated kernel source to a callable entry point.

    Returns ``(entry, jit_seconds)``.  Under ``mode="njit"`` the entry is
    an eagerly compiled dispatcher (one signature, JIT paid here, never
    in the hot loop); under ``mode="interp"`` it is the exec-compiled
    Python function itself (``jit_seconds`` 0)."""
    sup = native_support()
    if not sup.available:
        raise NativeBuildError(sup.reason)
    ns: Dict[str, object] = {"_np": np}
    exec(compile(source, "<native-kernel>", "exec"), ns)  # noqa: S102
    fn = ns["_kernel"]
    if sup.mode == "interp":
        return fn, 0.0
    import numba

    t0 = time.perf_counter()
    entry = numba.njit(NATIVE_SIGNATURE, cache=False)(fn)
    return entry, time.perf_counter() - t0


@dataclass
class NativeKernels:
    """The native tier of one plan: one compiled entry point.  Both
    flavors run on the fused kernel's regions, which materialize the
    lane vectors the njit signature takes on demand
    (``Region.index_vectors`` / ``Region.flat``)."""

    source: str
    entry: Callable
    mode: str                       # "njit" | "interp"
    jit_s: float

    def describe(self) -> str:
        return f"mode={self.mode}; jit={self.jit_s * 1e3:.1f} ms"


# ---------------------------------------------------------------------------
# build + lifecycle (rides the kernel cache)
# ---------------------------------------------------------------------------

_STATS = {"builds": 0, "hits": 0, "failures": 0, "disposed": 0,
          "jit_s": 0.0}
_stats_lock = threading.Lock()


def _build_native(ir) -> NativeKernels:
    sup = native_support()
    if not sup.available:
        raise NativeBuildError(sup.reason)
    source = render_native_source(ir.clause)
    entry, jit_s = compile_native_entry(source)
    return NativeKernels(source=source, entry=entry, mode=sup.mode,
                         jit_s=jit_s)


def ensure_native(kernels, ir) -> NativeKernels:
    """The native tier of *kernels*, built on first demand and stored on
    the cached :class:`FusedKernels` entry — the kernel cache's
    structural key therefore covers both tiers, and a warm recompile
    skips codegen *and* JIT.  Raises :class:`NativeBuildError` (with the
    cached reason on repeat calls) when no native form exists."""
    nat = getattr(kernels, "native", None)
    if nat is not None:
        with _stats_lock:
            _STATS["hits"] += 1
        return nat
    note = getattr(kernels, "native_note", None)
    if note is not None:
        raise NativeBuildError(note)
    try:
        nat = _build_native(ir)
    except NativeBuildError as e:
        kernels.native_note = str(e)
        with _stats_lock:
            _STATS["failures"] += 1
        raise
    except Exception as e:  # JIT surprises: cache the reason, never fatal
        kernels.native_note = f"{type(e).__name__}: {e}"
        with _stats_lock:
            _STATS["failures"] += 1
        raise NativeBuildError(kernels.native_note) from e
    kernels.native = nat
    with _stats_lock:
        _STATS["builds"] += 1
        _STATS["jit_s"] += nat.jit_s
    return nat


def dispose_native(kernels) -> None:
    """Drop the native tier of one evicted/cleared kernel-cache entry —
    the njit dispatcher (and its compiled machine code) must not outlive
    the structural-key entry that owns it."""
    if getattr(kernels, "native", None) is not None:
        kernels.native = None
        with _stats_lock:
            _STATS["disposed"] += 1
    if getattr(kernels, "native_note", None) is not None:
        kernels.native_note = None


def native_cache_info() -> Dict[str, object]:
    """Native-tier counters for ``compile --cache-stats``: builds (each
    paying one JIT), warm hits, cached-failure count, disposals, and
    total JIT seconds — plus the probe verdict."""
    sup = native_support()
    with _stats_lock:
        out = dict(_STATS)
    out["available"] = sup.available
    out["mode"] = sup.mode
    out["reason"] = sup.reason
    return out


def reset_native_stats() -> None:
    with _stats_lock:
        for k in _STATS:
            _STATS[k] = 0.0 if k == "jit_s" else 0
