"""Compile-once fused node kernels (the ``fused`` backend).

The paper's central claim is that ``Modify``/``Reside`` reduce to
closed-form generation functions *at compile time* — yet the scalar
templates still walk those sets, apply the placement arithmetic and
tree-walk the clause's expression element by element on every run.
This module pushes that last mile into compile time:

* the clause body (and guard) are lowered **once per plan** to generated
  Python/NumPy source — a single fused ufunc expression line, compiled
  with :func:`compile`/``exec`` and attached to the IR;
* per node, every membership set, owning processor and local-buffer
  address is resolved at kernel-build time into **regions**
  (:mod:`repro.pipeline.region`): per array axis a ``slice`` where
  Table I yields one progression and the address map is affine, an
  int64 vector for the irregular remainder — so a run addresses node
  memory by basic slicing (views) wherever the closed forms allow and
  through ``np.ix_`` otherwise, never through per-lane index arrays;
* the interior/boundary split of the `split-interior` pass is baked into
  an interior block plus at most ``2*ndim`` boundary strips, so the
  fused distributed program computes its interior while messages are in
  flight.

Kernels are built by the traced `lower-kernels` pass and memoized in a
:class:`KernelCache` keyed by the same structural keys as the plan cache
(:func:`repro.pipeline.cache.plan_key`): a structurally identical
recompile skips codegen entirely.  ``clear_plan_cache()`` clears this
cache too, so a stale kernel can never outlive its plan.

Plans the lowering cannot specialize — sequential (``•``) clauses,
expressions without a closed-form source rendering, and dynamic or
irregular decompositions whose local layout is not a dense ndarray —
keep the scalar templates; the reason is recorded as a trace note
(shown by ``compile --explain``) and again at run time when the fused
backend falls back.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.clause import Ordering
from ..core.expr import BinOp, Const, LoopIndex, Ref, UnOp
from .cache import _env_number, plan_key
from .region import Region, compose, image, klen, locate, meet, minus, \
    overhang, prog

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

def _render(expr, posmap: Dict[int, int], used: set) -> str:
    """ndarray-safe source for an expression tree: loop index *d* is the
    vector ``_i[d]`` (recorded in *used*), read at position *p* is the
    value vector ``_r[p]``."""
    from ..codegen.exprsrc import _BINOP_PY, _VEC_CALLS

    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, LoopIndex):
        used.add(expr.dim)
        return f"_i[{expr.dim}]"
    if isinstance(expr, Ref):
        return f"_r[{posmap[id(expr)]}]"
    if isinstance(expr, BinOp):
        left = _render(expr.left, posmap, used)
        right = _render(expr.right, posmap, used)
        if expr.op in _VEC_CALLS:
            return f"{_VEC_CALLS[expr.op]}({left}, {right})"
        return f"({left} {_BINOP_PY[expr.op]} {right})"
    if isinstance(expr, UnOp):
        inner = _render(expr.operand, posmap, used)
        if expr.op == "abs":
            return f"_np.absolute({inner})"
        if expr.op == "not":
            return f"_np.logical_not({inner})"
        return f"(-{inner})"
    raise KernelBuildError(
        f"no closed-form source for expression node {type(expr).__name__}"
    )


def _emit_source(clause) -> Tuple[str, Callable, Optional[Callable], set]:
    """Generate, compile and return ``(source, rhs_fn, guard_fn, loop
    dims the source reads)``.

    The body becomes one fused NumPy expression over the node's index
    vectors ``_i`` and pre-gathered read value vectors ``_r`` — no tree
    walk survives into the run."""
    posmap = {id(ref): pos for pos, ref in enumerate(clause.reads())}
    used: set = set()
    lines = [
        f"# fused kernel for clause {clause.name!r}",
        f"#   {clause!r}",
        "# _i[d]: open-grid index vector of loop dim d (precomputed)",
        "# _r[k]: lane values of read k (memory view / received message)",
        "",
        "def _rhs(_i, _r):",
        f"    return {_render(clause.rhs, posmap, used)}",
    ]
    if clause.guard is not None:
        lines += [
            "",
            "def _guard(_i, _r):",
            f"    return {_render(clause.guard, posmap, used)}",
        ]
    source = "\n".join(lines) + "\n"
    ns: Dict[str, object] = {"_np": np}
    exec(compile(source, "<fused-kernel>", "exec"), ns)  # noqa: S102
    return source, ns["_rhs"], ns.get("_guard"), used


# ---------------------------------------------------------------------------
# per-node lane plans (regions only: see :mod:`repro.pipeline.region`)
# ---------------------------------------------------------------------------

@dataclass
class _Block:
    """One lane set committed by one kernel call."""

    of: tuple                       # the node's lane shape ``pos`` indexes
    pos: Region                     # where the lanes sit in the read rows
    loop: Region                    # their loop indices
    write: Region                   # where they store
    grids: tuple                    # ``_i``: open-grid aranges of ``loop``
                                    # (``None`` for dims the body ignores)


@dataclass
class _Read:
    """How one node assembles one read's lane row."""

    pos: int
    name: str
    mem: Region                     # resident lanes' memory addresses
    lanes: Optional[Region] = None  # their row positions (None: all lanes)
    #: ((source node, region its payload fills), ...): lanes of the row
    #: buffer — with ``lanes = None`` (a ghost read), cells of the frame
    sources: tuple = ()


@dataclass
class _Send:
    pos: int
    name: str
    count: int                      # |Reside_p|, charged as iterations
    peers: tuple                    # ((destination, memory region), ...)


@dataclass
class SharedNodeKernel:
    """One node's kernel: everything but the data — the one node type
    of every executor.  The shared schedule is the degenerate case: no
    sends, every read resident, one block."""

    p: int                          # the node
    shape: tuple                    # lane shape: |Modify_p| per loop dim
    reads: tuple = ()
    blocks: tuple = ()              # lane blocks in commit order
    sends: tuple = ()
    interior: Optional[_Block] = None
    #: array -> per-axis ``(lo, hi)`` ghost widths this node's regions of
    #: it are shifted by (``dist`` flavor: ``LocalMemory.frame``)
    margins: Dict[str, tuple] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return math.prod(self.shape)

    @property
    def commits(self) -> tuple:
        """Every block, in commit order."""
        return self.blocks if self.interior is None \
            else (self.interior, *self.blocks)


class DistNodeKernel(SharedNodeKernel):
    """A node of the distributed schedule: ``sends`` go out first,
    ``interior`` commits while messages fly, ``blocks`` (the <= 2*ndim
    boundary strips) after the drain."""


#: flavor -> (node-local address map?, distributed schedule?): the
#: simulator's ``dist`` nodes address their own memories, the real
#: processes run the same schedule over the global arrays (``gdist``)
_FLAVORS = {"shared": (False, False), "dist": (True, True),
            "gdist": (False, True)}


@dataclass
class FusedKernels:
    """Everything ``backend="fused"`` needs, built once per plan."""

    source: str
    rhs: Callable
    guard: Optional[Callable]
    nreads: int
    write_name: str
    used: tuple = ()                # loop dims whose ``_i`` the source reads
    shared: Optional[List[SharedNodeKernel]] = None
    shared_note: Optional[str] = None
    dist: Optional[List[DistNodeKernel]] = None
    dist_note: Optional[str] = None
    #: built on first real-process lowering (:func:`flavor_nodes`)
    gdist: Optional[List[DistNodeKernel]] = None
    gdist_note: Optional[str] = None
    #: install envelopes of :mod:`repro.runtime.lowering`, per flavor
    mp_programs: Dict[str, object] = field(default_factory=dict)
    #: native (njit) tier riding on the same cache entry — built lazily
    #: by :func:`repro.pipeline.native.ensure_native`; a build failure is
    #: cached in ``native_note`` so the fallback reason is stable.
    native: Optional[object] = None
    native_note: Optional[str] = None

    @cached_property
    def region_stats(self) -> Dict[str, object]:
        """Per flavor how many regions are slice-keyed vs vector-keyed,
        and the entry's resident bytes as the kernel cache accounts them
        — what a large cache entry is made of.  ONE walk of the entry,
        which the cache's ``store`` and :meth:`describe` both read
        (:func:`recount` drops it when something lands later)."""
        out: Dict[str, object] = {"bytes": 0}
        out.update((f, {"slice": 0, "vector": 0}) for f in _FLAVORS)
        distinct = {}  # by identity: programs share the nodes
        for name in self.__dataclass_fields__:
            for x in _leaves(getattr(self, name), 1):
                distinct[id(x)] = x
                if name in _FLAVORS and isinstance(x, Region):
                    out[name]["slice" if x.sliced else "vector"] += 1
        out["bytes"] = _nbytes(distinct.values())
        return out

    def describe(self) -> str:
        stats = self.region_stats
        parts = []
        for flavor, label in (("shared", "shared"), ("dist", "distributed"),
                              ("gdist", "real-process distributed")):
            nodes, note = getattr(self, flavor), getattr(self, flavor + "_note")
            if nodes is not None:
                ghost: Dict[str, tuple] = {}  # the widest frame of any node
                for nk in nodes:
                    for name, m in nk.margins.items():
                        ghost[name] = _widest(m, ghost.get(name, m))
                parts.append(
                    f"{label}: {len(nodes)} node kernels "
                    f"({stats[flavor]['slice']} slice / "
                    f"{stats[flavor]['vector']} vector regions" + "".join(
                        f", ghost {name}"
                        f"[{', '.join(f'{lo}:{hi}' for lo, hi in m)}]"
                        for name, m in ghost.items()) + ")")
            elif note is not None:  # neither: not built yet (on demand)
                parts.append(f"{label}: dict-memory fallback ({note})")
        return "; ".join(parts) + f"; {stats['bytes']} bytes"


def _widest(a: tuple, b: tuple) -> tuple:
    """Per-axis maximum of two ghost margins."""
    return tuple((max(lo, m), max(hi, n)) for (lo, hi), (m, n) in zip(a, b))


def _strips(inner: list, shape: tuple) -> list:
    """Position keys of the <= 2*ndim blocks tiling the lanes outside
    ``prod(inner)``: per dim, what its inner key leaves out, times the
    inner keys before it and the full axes after it."""
    out = []
    for d, (j, n) in enumerate(zip(inner, shape)):
        if isinstance(j, slice) and j.step == 1:
            rest = [prog(0, 1, j.start), prog(j.stop, 1, n - j.stop)]
        else:
            rest = [minus(prog(0, 1, n), j)]
        out += [inner[:d] + [r] + [prog(0, 1, m) for m in shape[d + 1:]]
                for r in rest if klen(r)]
    return out


def _build_nodes(ir, local: bool, dist: bool, used) -> list:
    """The one lane-plan builder, from the accesses' own Table I
    enumerations in O(segments), for every executor.  *local* selects
    the address map — node-local slots through the decompositions'
    ``owned_indices`` / ``local_indices`` pairs, or the identity (the
    global arrays) — and *dist* the schedule shape: sends, fills and the
    interior split, or every read a resident gather and one block per
    node.  *used* are the loop dims whose index the kernel body reads."""
    write, nd, nodes = ir.write, len(ir.loop_bounds), range(ir.pmax)
    if dist and write.replicated:
        raise KernelBuildError("replicated write (per-copy broadcast)")
    for acc in ir.accesses():
        if not acc.funcs or len(set(acc.dims)) != len(acc.dims):
            raise KernelBuildError(
                f"{acc.label} {acc.name!r} has no separable access "
                "functions over distinct loop dims")
        if dist and len(acc.axes) != len(acc.funcs):
            raise KernelBuildError(
                f"{acc.label} {acc.name!r} carries no decomposition placing "
                "it axis by axis")
    remote = [acc for acc in ir.reads if dist and not acc.replicated]
    slots: Dict[tuple, tuple] = {}
    where: Dict[tuple, list] = {}
    out: list = []
    lanes = ir.member_keys(write)

    def placed(acc, p):
        """Per array axis of *acc* on node *p*: ``(owned, slots)``."""
        return where.get((acc.pos, p)) or where.setdefault((acc.pos, p), [
            slots.get((id(ax.dec), c)) or slots.setdefault(
                (id(ax.dec), c),
                (ax.dec.owned_indices(c), ax.dec.local_indices(c)))
            for ax, c in zip(acc.axes, acc.grid_coord(p))])

    def region(acc, p, loop_keys, shape) -> Region:
        """Memory region of *acc* over a lane block on node *p*: slots of
        owned elements — or global indices shifted into its ghost frame."""
        keys = [image(f, loop_keys[d]) for d, f in zip(acc.dims, acc.funcs)]
        if local:
            ghost = out[p].margins.get(acc.name)
            for k, (own, loc) in enumerate(placed(acc, p)):
                keys[k] = compose(loc, locate(keys[k], own)) if ghost is None \
                    else compose(slice(ghost[k][0] - own.start, None), keys[k])
        return Region(keys, acc.dims, shape)

    def ghost_widths(acc, p, shape) -> Optional[tuple]:
        """Per-axis ``(lo, hi)`` cells beside node *p*'s owned block that
        make every lane of read *acc* a slot of one frame (``None``: no
        such frame — a strided, wrapped, broadcast or vector-keyed image,
        or the write target, whose pre-state needs a copy anyway)."""
        if acc.name == write.name or len(acc.dims) != nd \
                or not all(isinstance(i, slice) for i in lanes[p]):
            return None
        keys = [image(f, lanes[p][d]) for d, f in zip(acc.dims, acc.funcs)]
        widths = [overhang(k, own, loc) if klen(k) == shape[d] else None
                  for k, d, (own, loc) in zip(keys, acc.dims, placed(acc, p))]
        return None if None in widths else tuple(widths)

    def sub(q, members):
        """``(position keys, loop keys, shape)`` of a member subset of
        node *q*'s lanes."""
        pos = [locate(k, i) for k, i in zip(members, lanes[q])]
        return (pos, [compose(i, j) for i, j in zip(lanes[q], pos)],
                tuple(klen(j) for j in pos))

    def block(p, pos) -> _Block:
        shape = tuple(klen(j) for j in pos)
        loop = Region([compose(i, j) for i, j in zip(lanes[p], pos)],
                      range(nd), shape)
        return _Block(tuple(klen(i) for i in lanes[p]),
                      Region(pos, range(nd), shape), loop,
                      region(write, p, loop.keys, shape),
                      tuple(g if d in used else None
                            for d, g in enumerate(loop.grids())))

    # per remote read: its residence, and who gathers what from whom
    reside = {acc.pos: ir.member_keys(acc) for acc in remote}
    moves = {}
    for acc in remote:
        for q in nodes:
            for s in nodes:
                both = []  # empty on one axis is empty: stop there
                for x, y in zip(lanes[q], reside[acc.pos][s]):
                    both.append(meet(x, y))
                    if not klen(both[-1]):
                        break
                else:
                    moves[acc.pos, q, s] = sub(q, both)

    for p in nodes:
        shape = tuple(klen(i) for i in lanes[p])
        nk = DistNodeKernel(p, shape) if dist else SharedNodeKernel(p, shape)
        out.append(nk)
        # a read with a remote source may claim ghost cells beside the
        # node's block — settled before any region of the array is built
        got, ghosts = {}, set()
        for acc in remote if nk.n else ():
            got[acc.pos] = g = {s: moves[acc.pos, p, s] for s in nodes
                                if (acc.pos, p, s) in moves}
            w = ghost_widths(acc, p, shape) if local and g.keys() != {p} \
                else None
            if w is not None:
                ghosts.add(acc.pos)
                nk.margins[acc.name] = _widest(
                    w, nk.margins.get(acc.name, w))
        sends = []
        for acc in remote:
            count = math.prod(klen(k) for k in reside[acc.pos][p])
            if count:
                sends.append(_Send(acc.pos, acc.name, count, tuple(
                    (q, region(acc, p, *moves[acc.pos, q, p][1:]))
                    for q in nodes
                    if q != p and (acc.pos, q, p) in moves)))
        nk.sends = tuple(sends)
        if not nk.n:
            continue
        reads = []
        for acc in ir.reads:
            g = got.get(acc.pos)
            if g is None or g.keys() == {p} \
                    and math.prod(g[p][2]) == nk.n:
                reads.append(_Read(acc.pos, acc.name,
                                   region(acc, p, lanes[p], shape)))
                continue
            if sum(math.prod(m[2]) for m in g.values()) != nk.n:
                raise KernelBuildError(
                    f"read {acc.name!r} reaches elements that not exactly "
                    "one node owns")
            mine = g.pop(p, None) or sub(p, [prog(0, 1, 0)] * nd)
            if acc.pos in ghosts:  # one view; each strip lands beside it
                mem = region(acc, p, lanes[p], shape)
                reads.append(_Read(acc.pos, acc.name, mem, sources=tuple(
                    (s, Region([compose(k, m[0][d])
                                for k, d in zip(mem.keys, acc.dims)],
                               acc.dims, m[2])) for s, m in g.items())))
                continue
            reads.append(_Read(
                acc.pos, acc.name, region(acc, p, *mine[1:]),
                Region(mine[0], range(nd), mine[2]),
                tuple((s, Region(m[0], range(nd), m[2]))
                      for s, m in g.items())))
        nk.reads = tuple(reads)
        split = ir.interior_split if dist else None
        ns = split.per_node.get(p) if split is not None else None
        inner = [locate(ns.interior[d], lanes[p][d])
                 for d in range(nd)] if ns is not None else []
        whole = block(p, [prog(0, 1, n) for n in shape])
        # a store that is not a plain view may repeat an address: it
        # commits as one block, in lexicographic lane order
        if inner and all(klen(j) for j in inner) and whole.write.view:
            nk.interior = block(p, inner)
            nk.blocks = tuple(block(p, pos) for pos in _strips(inner, shape))
        else:
            nk.blocks = (whole,)
    return out


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
    source, rhs, guard, used = _emit_source(clause)
    kernels = FusedKernels(
        source=source, rhs=rhs, guard=guard, nreads=len(ir.reads),
        write_name=ir.write.name, used=tuple(sorted(used)),
    )
    _build_flavor(kernels, ir, "shared")
    _build_flavor(kernels, ir, "dist")
    if kernels.shared is None and kernels.dist is None:
        raise KernelBuildError(
            f"shared: {kernels.shared_note}; distributed: {kernels.dist_note}"
        )
    return kernels


def _build_flavor(kernels: FusedKernels, ir, flavor: str) -> None:
    """Build one flavor's nodes onto *kernels*, or record why not."""
    try:
        setattr(kernels, flavor,
                _build_nodes(ir, *_FLAVORS[flavor], kernels.used))
    except KernelBuildError as e:
        setattr(kernels, flavor + "_note", str(e))
    except Exception as e:  # enumerator/placement surprises: never fatal
        setattr(kernels, flavor + "_note", f"{type(e).__name__}: {e}")


def flavor_nodes(ir, flavor: str) -> Optional[list]:
    """One flavor's node kernels of a compiled plan (``None``: no such
    form, reason in its ``_note``).  ``gdist`` — what real processes
    run — is built here on first demand, so a compile never pays for
    it."""
    k = ir.kernels
    if getattr(k, flavor) is None and getattr(k, flavor + "_note") is None:
        _build_flavor(k, ir, flavor)
        recount(ir, getattr(k, flavor))
    return getattr(k, flavor)


def recount(ir, landed) -> None:
    """Charge *landed* — something built on demand onto ``ir.kernels``
    after its cache entry was sized (the ``gdist`` flavor, a lowered
    program's sources) — to the kernel cache's byte budget."""
    ir.kernels.__dict__.pop("region_stats", None)
    key = _kernel_key(ir) if kernel_cache.enabled else None
    if key is not None:
        kernel_cache.grow(key, _approx_nbytes(landed))


# ---------------------------------------------------------------------------
# the kernel cache
# ---------------------------------------------------------------------------

_DEFAULT_MAXSIZE = 256


def _dispose_native_tier(kernels: FusedKernels) -> None:
    """Drop the native (njit) artifacts riding on an evicted entry so
    the dispatcher and its compiled machine code can be collected."""
    from .native import dispose_native  # local: kernels <- native cycle

    dispose_native(kernels)


def _leaves(obj, _depth: int = 0):
    """The ndarray, text and :class:`Region` leaves of a kernel entry,
    found by a bounded structural walk."""
    todo = [(obj, _depth)]
    while todo:
        obj, depth = todo.pop()
        if depth > 8 or obj is None:
            continue
        if isinstance(obj, (np.ndarray, str, bytes, Region)):
            yield obj
        elif isinstance(obj, (list, tuple)):
            todo.extend((x, depth + 1) for x in obj)
        elif isinstance(obj, dict):
            todo.extend((x, depth + 1) for x in obj.values())
        elif hasattr(obj, "__dataclass_fields__"):
            todo.extend((getattr(obj, name), depth + 1)
                        for name in obj.__dataclass_fields__)


def _nbytes(leaves) -> int:
    return sum(len(x) if isinstance(x, (str, bytes)) else int(x.nbytes)
               for x in leaves)


def _approx_nbytes(obj) -> int:
    """Approximate resident bytes of a kernel entry: the vector keys of
    its regions, ndarray buffers and generated source text.  This is an
    *accounting* estimate (index vectors dominate where there are any),
    not ``sys.getsizeof`` truth."""
    # by identity: programs share the nodes
    return _nbytes({id(x): x for x in _leaves(obj)}.values())


#: default resident-byte budget for the kernel cache (256 MiB);
#: override with ``REPRO_CACHE_BYTES`` (read at construction time)
_DEFAULT_MAX_BYTES = 256 * 1024 * 1024


class KernelCache:
    """Thread-safe, size-accounted LRU cache of :class:`FusedKernels`,
    keyed by the plan cache's structural keys — warm recompiles skip
    codegen entirely.  Eviction fires on *either* bound: entry count
    (``maxsize`` / ``REPRO_CACHE_SIZE``) or resident bytes
    (``max_bytes`` / ``REPRO_CACHE_BYTES``, counting the regions' vector
    keys, generated source and everything lowered onto the entry later:
    :func:`recount` charges it)."""

    def __init__(self, maxsize: Optional[int] = None,
                 max_bytes: Optional[int] = None):
        self.maxsize = (_env_number("REPRO_CACHE_SIZE", _DEFAULT_MAXSIZE)
                        if maxsize is None else maxsize)
        self.max_bytes = (_env_number("REPRO_CACHE_BYTES", _DEFAULT_MAX_BYTES)
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
        nbytes = kernels.region_stats["bytes"]  # walked outside the lock
        with self._lock:
            old = self._sizes.pop(key, None)
            if old is not None:
                self.bytes -= old
            self._entries[key] = kernels
            self._entries.move_to_end(key)
            self._sizes[key] = nbytes
            self.bytes += nbytes
            dropped = self._evict()
        for evicted in dropped:
            _dispose_native_tier(evicted)

    def grow(self, key: tuple, nbytes: int) -> None:
        """A resident entry grew by *nbytes* after it was stored."""
        with self._lock:
            if key not in self._sizes:
                return
            self._sizes[key] += nbytes
            self.bytes += nbytes
            dropped = self._evict()
        for evicted in dropped:
            _dispose_native_tier(evicted)

    def _evict(self) -> list:
        """Drop oldest entries until both bounds hold (lock held)."""
        dropped = []
        while len(self._entries) > 1 and (
                len(self._entries) > self.maxsize
                or self.bytes > self.max_bytes):
            k, evicted = self._entries.popitem(last=False)
            self.bytes -= self._sizes.pop(k, 0)
            self.evictions += 1
            dropped.append(evicted)
        return dropped

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
            notes.append(f"{label} fallback → scalar template: "
                         f"{note}")
    return notes
