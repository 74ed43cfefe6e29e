"""Compile-once fused node kernels (the ``fused`` backend).

The paper's central claim is that ``Modify``/``Reside`` reduce to
closed-form generation functions *at compile time* — yet the vector
backend still re-derives its membership vectors, placement arithmetic
and local-buffer keys on every run, and walks the clause's expression
tree element-wise through :func:`~repro.machine.vectorize.eval_expr_vec`.
This module pushes that last mile into compile time:

* the clause body (and guard) are lowered **once per plan** to generated
  Python/NumPy source — a single fused ufunc expression line, compiled
  with :func:`compile`/``exec`` and attached to the IR;
* per node, every membership index vector, owning-processor vector and
  local-buffer address is evaluated at kernel-build time and stored as a
  precomputed **flat gather/scatter index array** into the node's local
  ndarray (``np.ravel_multi_index`` for grid layouts), so a run performs
  one fancy-indexed load/store per access instead of per-step dict-keyed
  ``LocalMemory`` arithmetic;
* the interior/boundary split of the `split-interior` pass is baked into
  per-lane-set sub-kernels, so the fused distributed program computes
  its interior while messages are in flight.

Kernels are built by the traced `lower-kernels` pass and memoized in a
:class:`KernelCache` keyed by the same structural keys as the plan cache
(:func:`repro.pipeline.cache.plan_key`): a structurally identical
recompile skips codegen entirely.  ``clear_plan_cache()`` clears this
cache too, so a stale kernel can never outlive its plan.

Plans the lowering cannot specialize — sequential (``•``) clauses,
expressions without a closed-form source rendering, and dynamic or
irregular decompositions whose local layout is not a dense ndarray —
keep the dict-keyed vector path; the reason is recorded as a trace note
(shown by ``compile --explain``) and again at run time when the fused
backend falls back.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.clause import Ordering
from ..core.expr import BinOp, Const, LoopIndex, Ref, UnOp
from .cache import _env_maxsize, plan_key

__all__ = [
    "FusedKernels",
    "SharedNodeKernel",
    "DistNodeKernel",
    "KernelCache",
    "kernel_cache",
    "kernel_cache_info",
    "clear_kernel_cache",
    "build_kernels",
    "attach_kernels",
    "KernelBuildError",
]


class KernelBuildError(ValueError):
    """A plan has no fused-kernel specialization (reason in ``args[0]``)."""


# ---------------------------------------------------------------------------
# fused expression codegen
# ---------------------------------------------------------------------------

def _render(expr, posmap: Dict[int, int]) -> str:
    """ndarray-safe source for an expression tree: loop index *d* is the
    vector ``_i[d]``, read at position *p* is the value vector ``_r[p]``."""
    from ..codegen.exprsrc import _BINOP_PY, _VEC_CALLS

    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, LoopIndex):
        return f"_i[{expr.dim}]"
    if isinstance(expr, Ref):
        return f"_r[{posmap[id(expr)]}]"
    if isinstance(expr, BinOp):
        left = _render(expr.left, posmap)
        right = _render(expr.right, posmap)
        if expr.op in _VEC_CALLS:
            return f"{_VEC_CALLS[expr.op]}({left}, {right})"
        return f"({left} {_BINOP_PY[expr.op]} {right})"
    if isinstance(expr, UnOp):
        inner = _render(expr.operand, posmap)
        if expr.op == "abs":
            return f"_np.absolute({inner})"
        if expr.op == "not":
            return f"_np.logical_not({inner})"
        return f"(-{inner})"
    raise KernelBuildError(
        f"no closed-form source for expression node {type(expr).__name__}"
    )


def _emit_source(clause) -> Tuple[str, Callable, Optional[Callable]]:
    """Generate, compile and return ``(source, rhs_fn, guard_fn)``.

    The body becomes one fused NumPy expression over the node's index
    vectors ``_i`` and pre-gathered read value vectors ``_r`` — no tree
    walk survives into the run."""
    posmap = {id(ref): pos for pos, ref in enumerate(clause.reads())}
    lines = [
        f"# fused kernel for clause {clause.name!r}",
        f"#   {clause!r}",
        "# _i[d]: membership index vector of loop dim d (precomputed)",
        "# _r[k]: value vector of read k (flat gather / received message)",
        "",
        "def _rhs(_i, _r):",
        f"    return {_render(clause.rhs, posmap)}",
    ]
    if clause.guard is not None:
        lines += [
            "",
            "def _guard(_i, _r):",
            f"    return {_render(clause.guard, posmap)}",
        ]
    source = "\n".join(lines) + "\n"
    ns: Dict[str, object] = {"_np": np}
    exec(compile(source, "<fused-kernel>", "exec"), ns)  # noqa: S102
    return source, ns["_rhs"], ns.get("_guard")


# ---------------------------------------------------------------------------
# per-node precomputation
# ---------------------------------------------------------------------------

@dataclass
class SharedNodeKernel:
    """One node's shared-memory kernel: everything but the data."""

    n: int
    idx: np.ndarray                 # int64[ndim, n] membership index vectors
    read_keys: tuple                # per read: (name, global index key)
    write_key_vecs: tuple           # index arrays into the global target


@dataclass
class _DistSend:
    pos: int
    name: str
    count: int
    peers: tuple                    # ((q, flat gather into local buf), ...)


@dataclass
class _DistRead:
    pos: int
    name: str
    replicated: bool
    rep_gather: Optional[np.ndarray] = None   # replicated: flat full-copy key
    local_pos: Optional[np.ndarray] = None    # lanes resident locally
    local_gather: Optional[np.ndarray] = None  # flat local-buffer indices
    sources: tuple = ()             # ((src, lane-fill positions), ...)


@dataclass
class DistNodeKernel:
    """One node's distributed kernel: send plan, gather plan, lane split."""

    n: int
    idx: np.ndarray                 # int64[ndim, n]
    sends: tuple
    reads: tuple
    interior: np.ndarray            # lane positions computed pre-drain
    boundary: np.ndarray
    idx_interior: np.ndarray        # idx restricted to each lane set
    idx_boundary: np.ndarray
    scatter_interior: np.ndarray    # flat store keys into the write buffer
    scatter_boundary: np.ndarray


@dataclass
class FusedKernels:
    """Everything ``backend="fused"`` needs, built once per plan."""

    source: str
    rhs: Callable
    guard: Optional[Callable]
    nreads: int
    write_name: str
    shared: Optional[List[SharedNodeKernel]] = None
    shared_note: Optional[str] = None
    dist: Optional[List[DistNodeKernel]] = None
    dist_note: Optional[str] = None
    build_notes: List[str] = field(default_factory=list)
    #: native (njit) tier riding on the same cache entry — built lazily
    #: by :func:`repro.pipeline.native.ensure_native`; a build failure is
    #: cached in ``native_note`` so the fallback reason is stable.
    native: Optional[object] = None
    native_note: Optional[str] = None

    def describe(self) -> str:
        parts = []
        for label, nodes, note in (("shared", self.shared, self.shared_note),
                                   ("distributed", self.dist, self.dist_note)):
            if nodes is not None:
                parts.append(f"{label}: {len(nodes)} node kernels")
            else:
                parts.append(f"{label}: dict-memory fallback ({note})")
        return "; ".join(parts)


def _stack_i64(vecs) -> np.ndarray:
    """Stack per-dim index vectors into one C-contiguous ``int64[ndim,
    n]`` — the generated NumPy line reads row ``_i[d]``, the njit scalar
    loop element ``_i[d, t]``, so both kernel tiers take the same array."""
    return np.ascontiguousarray(np.stack(
        [np.asarray(v, dtype=np.int64) for v in vecs]))


def _flat_local(acc, idx_vecs, p: int) -> np.ndarray:
    """Flat index into node *p*'s local ndarray for every member lane.

    1-D layouts are flat already; grid layouts ravel through the node's
    dense local shape.  Anything else has no static dense layout and
    raises :class:`KernelBuildError` (the dict-memory fallback)."""
    from ..decomp.multidim import GridDecomposition
    from ..machine.vectorize import _local_key

    key = _local_key(acc, idx_vecs)
    if not isinstance(key, tuple):
        return np.asarray(key, dtype=np.int64)
    if len(key) == 1:
        return np.asarray(key[0], dtype=np.int64)
    dec = acc.dec
    if isinstance(dec, GridDecomposition):
        shape = dec.local_shape(p)
        if any(s <= 0 for s in shape):
            return np.zeros(0, dtype=np.int64)
        return np.ravel_multi_index(
            tuple(np.asarray(k, dtype=np.int64) for k in key), shape)
    raise KernelBuildError(
        f"{acc.name!r}: irregular local layout under {type(dec).__name__} "
        "has no flat ndarray form"
    )


def _build_shared(ir) -> List[SharedNodeKernel]:
    from ..machine.vectorize import _member_vecs, apply_ifunc

    nodes = []
    for p in range(ir.pmax):
        idx_vecs = _member_vecs(ir, ir.write, p)
        n = int(idx_vecs[0].size)
        read_keys = []
        for acc in ir.reads:
            if not acc.funcs:
                raise KernelBuildError(
                    f"read {acc.name!r} has no separable access functions")
            ai = tuple(apply_ifunc(f, idx_vecs[d])
                       for d, f in zip(acc.dims, acc.funcs))
            read_keys.append((acc.name, ai if len(ai) > 1 else ai[0]))
        w_ai = tuple(apply_ifunc(f, idx_vecs[d])
                     for d, f in zip(ir.write.dims, ir.write.funcs))
        nodes.append(SharedNodeKernel(
            n=n, idx=_stack_i64(idx_vecs), read_keys=tuple(read_keys),
            write_key_vecs=w_ai,
        ))
    return nodes


def _build_dist(ir) -> List[DistNodeKernel]:
    from ..machine.vectorize import (
        _interior_mask,
        _member_vecs,
        _proc_linear,
        apply_ifunc,
    )

    if ir.write.replicated:
        raise KernelBuildError("replicated write (per-copy broadcast)")
    for acc in ir.reads:
        if not acc.placed:
            raise KernelBuildError(
                f"read {acc.name!r} carries no decomposition")
        if acc.replicated and len(acc.funcs) != 1:
            raise KernelBuildError(
                f"replicated read {acc.name!r} is not rank-1")

    nodes = []
    for p in range(ir.pmax):
        # -- send plan ------------------------------------------------------
        sends = []
        for acc in ir.reads:
            if acc.replicated:
                continue
            r_idx = _member_vecs(ir, acc, p)
            cnt = int(r_idx[0].size)
            if cnt == 0:
                continue
            dest = _proc_linear(ir.write, r_idx)
            gather = _flat_local(acc, r_idx, p)
            peers = tuple(
                (int(q), gather[dest == q])
                for q in np.unique(dest) if int(q) != p
            )
            sends.append(_DistSend(pos=acc.pos, name=acc.name, count=cnt,
                                   peers=peers))

        # -- gather plan ----------------------------------------------------
        idx_vecs = _member_vecs(ir, ir.write, p)
        n = int(idx_vecs[0].size)
        reads = []
        for acc in ir.reads:
            if acc.replicated:
                ai = apply_ifunc(acc.funcs[0], idx_vecs[acc.dims[0]]) \
                    if n else np.zeros(0, dtype=np.int64)
                reads.append(_DistRead(pos=acc.pos, name=acc.name,
                                       replicated=True, rep_gather=ai))
                continue
            if n == 0:
                reads.append(_DistRead(
                    pos=acc.pos, name=acc.name, replicated=False,
                    local_pos=np.zeros(0, dtype=np.int64),
                    local_gather=np.zeros(0, dtype=np.int64)))
                continue
            src = _proc_linear(acc, idx_vecs)
            local = src == p
            local_pos = np.nonzero(local)[0]
            sub = [v[local] for v in idx_vecs]
            local_gather = _flat_local(acc, sub, p)
            sources = tuple(
                (int(s), np.nonzero(src == s)[0])
                for s in np.unique(src[~local])
            )
            reads.append(_DistRead(pos=acc.pos, name=acc.name,
                                   replicated=False, local_pos=local_pos,
                                   local_gather=local_gather,
                                   sources=sources))

        # -- commit plan: lane split + flat scatter --------------------------
        if n:
            scatter = _flat_local(ir.write, idx_vecs, p)
            interior_mask = _interior_mask(ir, p, idx_vecs)
            interior = np.nonzero(interior_mask)[0]
            boundary = np.nonzero(~interior_mask)[0]
        else:
            scatter = np.zeros(0, dtype=np.int64)
            interior = boundary = np.zeros(0, dtype=np.int64)
        nodes.append(DistNodeKernel(
            n=n,
            idx=_stack_i64(idx_vecs),
            sends=tuple(sends),
            reads=tuple(reads),
            interior=interior,
            boundary=boundary,
            idx_interior=_stack_i64([v[interior] for v in idx_vecs]),
            idx_boundary=_stack_i64([v[boundary] for v in idx_vecs]),
            scatter_interior=scatter[interior],
            scatter_boundary=scatter[boundary],
        ))
    return nodes


def build_kernels(ir) -> FusedKernels:
    """Lower one compiled Plan IR to its fused kernels.

    Raises :class:`KernelBuildError` when *no* fused form exists at all
    (sequential clause, unrenderable expression); partial availability —
    e.g. shared kernels without distributed ones — is recorded per
    flavor with the fallback reason."""
    clause = ir.clause
    if clause.ordering is not Ordering.PAR:
        raise KernelBuildError(
            "sequential (•) clause is a serial chain; scalar path kept")
    if ir.write is None:
        raise KernelBuildError("plan carries no substituted write access")
    source, rhs, guard = _emit_source(clause)
    kernels = FusedKernels(
        source=source, rhs=rhs, guard=guard,
        nreads=len(ir.reads), write_name=ir.write.name,
    )
    try:
        kernels.shared = _build_shared(ir)
    except KernelBuildError as e:
        kernels.shared_note = str(e)
    except Exception as e:  # enumerator/placement surprises: never fatal
        kernels.shared_note = f"{type(e).__name__}: {e}"
    try:
        kernels.dist = _build_dist(ir)
    except KernelBuildError as e:
        kernels.dist_note = str(e)
    except Exception as e:
        kernels.dist_note = f"{type(e).__name__}: {e}"
    if kernels.shared is None and kernels.dist is None:
        raise KernelBuildError(
            f"shared: {kernels.shared_note}; distributed: {kernels.dist_note}"
        )
    return kernels


# ---------------------------------------------------------------------------
# the kernel cache
# ---------------------------------------------------------------------------

_DEFAULT_MAXSIZE = 256


def _dispose_native_tier(kernels: FusedKernels) -> None:
    """Drop the native (njit) artifacts riding on an evicted entry so
    the dispatcher and its compiled machine code can be collected."""
    from .native import dispose_native  # local: kernels <- native cycle

    dispose_native(kernels)


def _approx_nbytes(obj, _depth: int = 0) -> int:
    """Approximate resident bytes of a kernel entry: ndarray buffers plus
    generated source text, found by a bounded structural walk.  This is
    an *accounting* estimate (the index arrays dominate by orders of
    magnitude), not ``sys.getsizeof`` truth."""
    if _depth > 8 or obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (str, bytes)):
        return len(obj)
    if isinstance(obj, (list, tuple)):
        return sum(_approx_nbytes(x, _depth + 1) for x in obj)
    if isinstance(obj, dict):
        return sum(_approx_nbytes(x, _depth + 1) for x in obj.values())
    if hasattr(obj, "__dataclass_fields__"):
        return sum(_approx_nbytes(getattr(obj, name), _depth + 1)
                   for name in obj.__dataclass_fields__)
    return 0


#: default resident-byte budget for the kernel cache (256 MiB);
#: override with ``REPRO_CACHE_BYTES`` (read at construction time)
_DEFAULT_MAX_BYTES = 256 * 1024 * 1024


def _env_max_bytes(default: int) -> int:
    raw = os.environ.get("REPRO_CACHE_BYTES")
    if not raw:
        return default
    try:
        return max(1, int(raw))
    except ValueError:
        return default


class KernelCache:
    """Thread-safe, size-accounted LRU cache of :class:`FusedKernels`,
    keyed by the plan cache's structural keys — warm recompiles skip
    codegen entirely.  Eviction fires on *either* bound: entry count
    (``maxsize`` / ``REPRO_CACHE_SIZE``) or resident bytes
    (``max_bytes`` / ``REPRO_CACHE_BYTES``, counting the precomputed
    gather/scatter index arrays and generated source)."""

    def __init__(self, maxsize: Optional[int] = None,
                 max_bytes: Optional[int] = None):
        self.maxsize = (_env_maxsize(_DEFAULT_MAXSIZE)
                        if maxsize is None else maxsize)
        self.max_bytes = (_env_max_bytes(_DEFAULT_MAX_BYTES)
                          if max_bytes is None else max_bytes)
        self.enabled = True
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bytes = 0
        self._entries: "OrderedDict[tuple, FusedKernels]" = OrderedDict()
        self._sizes: Dict[tuple, int] = {}
        self._lock = threading.Lock()

    def lookup(self, key: tuple) -> Optional[FusedKernels]:
        with self._lock:
            k = self._entries.get(key)
            if k is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return k

    def store(self, key: tuple, kernels: FusedKernels) -> None:
        nbytes = _approx_nbytes(kernels)  # sized outside the lock
        dropped = []
        with self._lock:
            old = self._sizes.pop(key, None)
            if old is not None:
                self.bytes -= old
            self._entries[key] = kernels
            self._entries.move_to_end(key)
            self._sizes[key] = nbytes
            self.bytes += nbytes
            while len(self._entries) > 1 and (
                    len(self._entries) > self.maxsize
                    or self.bytes > self.max_bytes):
                k, evicted = self._entries.popitem(last=False)
                self.bytes -= self._sizes.pop(k, 0)
                self.evictions += 1
                dropped.append(evicted)
        for evicted in dropped:
            _dispose_native_tier(evicted)

    def clear(self) -> None:
        with self._lock:
            dropped = list(self._entries.values())
            self._entries.clear()
            self._sizes.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.bytes = 0
        for evicted in dropped:
            _dispose_native_tier(evicted)

    def info(self) -> Dict[str, object]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "bytes": self.bytes,
                "max_bytes": self.max_bytes,
                "enabled": self.enabled,
            }


#: process-global kernel cache (cleared alongside the plan cache)
kernel_cache = KernelCache()


def kernel_cache_info() -> Dict[str, object]:
    return kernel_cache.info()


def clear_kernel_cache() -> None:
    kernel_cache.clear()


def _kernel_key(ir) -> Optional[tuple]:
    key = plan_key(ir.clause, ir.decomps, successor=ir.successor,
                   require_read_decomps=ir.require_read_decomps)
    if key is None:
        return None
    try:
        hash(key)
    except TypeError:
        return None
    return ("kern",) + key


def attach_kernels(ir) -> List[str]:
    """The `lower-kernels` pass body: build (or fetch) fused kernels and
    attach them to ``ir.kernels``.  Returns the trace notes."""
    key = _kernel_key(ir) if kernel_cache.enabled else None
    if key is not None:
        cached = kernel_cache.lookup(key)
        if cached is not None:
            ir.kernels = cached
            return [f"kernel-cache hit: {cached.describe()}"]
    try:
        kernels = build_kernels(ir)
    except KernelBuildError as e:
        ir.kernels = None
        return [f"no fused kernel: {e}"]
    ir.kernels = kernels
    if key is not None:
        kernel_cache.store(key, kernels)
    notes = [f"compiled fused kernels: {kernels.describe()}"]
    for label, note in (("shared", kernels.shared_note),
                        ("distributed", kernels.dist_note)):
        if note:
            notes.append(f"{label} fallback → dict-keyed vector path: "
                         f"{note}")
    return notes
