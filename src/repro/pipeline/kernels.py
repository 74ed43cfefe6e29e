"""Compile-once fused node kernels (the ``fused`` backend).

The paper's central claim is that ``Modify``/``Reside`` reduce to
closed-form generation functions *at compile time* — yet the scalar
templates still walk those sets, apply the placement arithmetic and
tree-walk the clause's expression element by element on every run.
This module pushes that last mile into compile time:

* the clause body (and guard) are lowered **once per plan** to generated
  NumPy source — straight-line ufunc calls, each writing ``out=`` into a
  numbered scratch slot (:class:`Slots`) — audited (KRN002) and compiled
  from one parse by :func:`compile_kernel`, the one place kernel source
  becomes code, and attached to the IR; every kernel entry passes the
  calling thread's slot arrays for its block (:func:`scratch`: views of
  one growable buffer per thread), so a warm kernel call allocates
  nothing — and since the body is straight-line elementwise calls, the
  same source runs over a block's nd views or, where the block allows
  (:attr:`_Block.span`), over one flat span per read;
* per node, every membership set, owning processor and local-buffer
  address is resolved at kernel-build time into **regions**
  (:mod:`repro.pipeline.region`): per array axis a ``slice`` where
  Table I yields one progression and the address map is affine, an
  int64 vector for the irregular remainder — so a run addresses node
  memory by basic slicing (views) wherever the closed forms allow and
  through ``np.ix_`` otherwise, never through per-lane index arrays;
* the interior/boundary split of the `split-interior` pass is baked into
  an interior block plus at most ``2*ndim`` boundary strips for real
  processes (``gdist``), which compute their interior while messages are
  in flight; in process (``dist``) each node commits its whole
  ``Modify_p`` as one block after the drain — §2.10's send, receive,
  then update — keeping only the interior's lane count for the latency
  model;
* in one address space the §2.9 node programs add up to one program:
  the ``union`` flavor is ONE block per process over the union of the
  ``Modify_p`` of the nodes it owns (:func:`owner`; each node's
  counters read off its own keys), so an in-process shared run is one
  kernel call per clause, and an mp worker's block is whole grid rows.

The traced `lower-kernels` pass renders the source; each flavor's nodes
are built by :func:`flavor_nodes` on first use and audited as they land,
so no plan pays for a template it never runs.  Entries are memoized in a
:class:`KernelCache` keyed by the same structural keys as the plan cache
(:func:`repro.pipeline.cache.plan_key`): a structurally identical
recompile skips codegen entirely.  ``clear_plan_cache()`` clears this
cache too, so a stale kernel can never outlive its plan.

Plans the lowering cannot specialize — sequential (``•``) clauses,
unrenderable expressions, non-separable accesses — keep the scalar
templates; the reason is recorded as a trace note (shown by ``compile
--explain``).  A flavor that cannot be built keeps its reason on the
entry, and the executor falls back with it.
"""

from __future__ import annotations

import ast
import functools
import itertools
import math
import mmap
import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..codegen.exprsrc import CodegenError, expr_src
from ..core.clause import Ordering
from ..core.expr import Const, LoopIndex
from .cache import _env_number, _StructuralCache, plan_key
from .region import Region, chain, compose, exchange, image, join, klen, \
    locate, minus, overhang, prog

__all__ = [
    "FusedKernels",
    "NodeKernel",
    "KernelCache",
    "kernel_cache",
    "kernel_cache_info",
    "clear_kernel_cache",
    "build_kernels",
    "attach_kernels",
    "flavor_nodes",
    "owner",
    "KernelBuildError",
]


class KernelBuildError(ValueError):
    """A plan has no fused-kernel specialization (reason in ``args[0]``)."""


# ---------------------------------------------------------------------------
# fused expression codegen
# ---------------------------------------------------------------------------

_F8, _I8 = np.dtype(np.float64), np.dtype(np.int64)


@functools.lru_cache(maxsize=None)
def _loop_dtype(ufunc: str, operands: tuple) -> np.dtype:
    """The dtype *ufunc* computes for operands of these kinds — per
    operand a NumPy dtype and whether it is an array (else a NumPy
    scalar), or ``int``/``float`` for a Python scalar — read off one
    call on one-element operands of those kinds, so it is what this
    NumPy's promotion rules give at run time."""
    args = [t(1) if isinstance(t, type) else np.ones(1, t) if array
            else t.type(1) for t, array in operands]
    with np.errstate(all="ignore"):
        return np.asarray(getattr(np, ufunc)(*args)).dtype


class Slots:
    """The slot form of one kernel (:func:`~repro.codegen.exprsrc.expr_src`
    with *slots*): straight-line ufunc calls, each writing ``out=`` into a
    numbered scratch slot ``_s[k]``.  Every slot holds values of one dtype
    over one set of loop dims (its broadcast shape on a block: the block's
    extent on those dims, 1 on the rest), and is reused once the value in
    it is dead — by the very call that reads it last, where the types
    agree (an exact overlap, which NumPy computes in place).  A value over
    no dim (scalar-only) takes no slot: its call returns a NumPy scalar.

    Leaves are typed by the kernel convention: read row ``_r[k]`` float64
    over every loop dim, index grid ``_i[d]`` int64 over dim *d*, a
    constant a Python scalar; a call's dtype is its ufunc's loop for its
    operands' (:func:`_loop_dtype`), so a slot is exactly the array the
    ufunc would have allocated."""

    def __init__(self, nd: int):
        self.nd = nd
        self.lines: List[str] = []
        self.specs: List[tuple] = []      # slot k -> (dtype, dims)
        self._free: Dict[tuple, list] = {}
        self._kinds: Dict[str, tuple] = {}  # value source -> (type, dims)

    def leaf(self, expr, src: str) -> str:
        if isinstance(expr, Const):
            v = expr.value
            kind = (np.dtype(bool) if isinstance(v, bool) else type(v), ())
        elif isinstance(expr, LoopIndex):
            kind = (_I8, (expr.dim,))
        else:
            kind = (_F8, tuple(range(self.nd)))
        self._kinds[src] = kind
        return src

    def call(self, ufunc: str, args: List[str]) -> str:
        kinds = [self._kinds[a] for a in args]
        dims = tuple(sorted({d for _, ds in kinds for d in ds}))
        try:
            dtype = _loop_dtype(ufunc, tuple((t, bool(ds))
                                             for t, ds in kinds))
        except Exception as e:  # no loop for these operands: no kernel
            raise CodegenError(f"_np.{ufunc} has no loop for "
                               f"{[str(t) for t, _ in kinds]}: {e}") from None
        call = f"_np.{ufunc}({', '.join(args)}"
        if not dims:
            src = call + ")"
        else:
            for a, kind in zip(args, kinds):  # dead from here on
                if a.startswith("_s["):
                    self._free.setdefault(kind, []).append(a)
            free = self._free.get((dtype, dims))
            if free:
                src = free.pop()
            else:
                src = f"_s[{len(self.specs)}]"
                self.specs.append((dtype, dims))
            self.lines.append(f"{call}, out={src})")
        self._kinds[src] = (dtype, dims)
        return src


def _emit_source(clause) -> Tuple[str, Callable, Optional[Callable], set,
                                  tuple]:
    """Generate, compile and return ``(source, rhs_fn, guard_fn, loop
    dims the source reads, slot specs)``.

    The body becomes straight-line NumPy ufunc calls (:class:`Slots`)
    over the node's index grids ``_i`` and pre-gathered read rows ``_r``
    into the scratch slots ``_s`` — no tree walk, and no temporary,
    survives into the run.  Loop index *d* is the grid ``_i[d]``
    (recorded in ``used``), read at position *p* the row ``_r[p]``.  The
    guard renders first: its mask's slot is never freed, so no call of
    the body writes it."""
    posmap = {id(ref): pos for pos, ref in enumerate(clause.reads())}
    used: set = set()
    slots = Slots(clause.domain.dim)

    def index(dim: int) -> str:
        used.add(dim)
        return f"_i[{dim}]"

    def row(r) -> str:
        return f"_r[{posmap[id(r)]}]"

    try:
        guard = None if clause.guard is None \
            else expr_src(clause.guard, row, index, slots)
        guard_lines, slots.lines = slots.lines, []
        rhs = expr_src(clause.rhs, row, index, slots)
    except CodegenError as e:
        raise KernelBuildError(str(e)) from None
    lines = ["def _rhs(_i, _r, _s):",
             *(f"    {ln}" for ln in slots.lines),
             f"    return {rhs}"]
    if guard is not None:
        lines += ["", "def _guard(_i, _r, _s):",
                  *(f"    {ln}" for ln in guard_lines),
                  f"    return {guard}"]
    source = "\n".join((
        f"# fused kernel for clause {clause.name!r}",
        f"#   {clause!r}",
        "# _i[d]: open-grid index vector of loop dim d (precomputed)",
        "# _r[k]: lane values of read k (memory view / received message)",
        "# _s[k]: scratch slot k (this thread's, one per block shape)",
        "", *lines)) + "\n"
    # the text workers and ranks install: one memo entry per kernel
    rhs_fn, guard_fn = compile_kernel(source)
    return source, rhs_fn, guard_fn, used, tuple(slots.specs)


@functools.lru_cache(maxsize=256)
def compile_kernel(source: str) -> Tuple[Callable, Optional[Callable]]:
    """The one place kernel source becomes code, in process and on every
    worker and rank: parse once, audit that tree (KRN002), compile the
    same tree.  Returns ``(_rhs, _guard)``; a source the audit rejects
    raises :class:`KernelBuildError` and never runs.  Memoized on the
    text (the functions hold no state: slots are passed in), so a
    kernel parses and compiles once per process — a program compiled
    under several decompositions, the in-process plan and the ranks of
    the threaded MPI stub share it;
    :func:`clear_kernel_cache` drops the memo."""
    from ..analysis.kernel_sanitizer import AST_LOCK, audit_kernel_tree

    ns: Dict[str, object] = {"_np": np}
    with AST_LOCK:
        tree = ast.parse(source)
        problems = audit_kernel_tree(tree)
        if problems:
            raise KernelBuildError(f"KRN002: kernel source rejected: "
                                   f"{problems[0]}")
        exec(compile(tree, "<fused-kernel>", "exec"), ns)  # noqa: S102
    return ns["_rhs"], ns.get("_guard")


#: per-thread scratch arena: one growable byte buffer, and the slot
#: views carved from it per slot specs.  The buffer is a private mapping
#: that lives as long as its thread, outside the malloc heap that
#: NumPy's own temporaries come from
_ARENA = threading.local()
#: slot offsets in the arena are multiples of this many bytes
_ALIGN = 64
#: slot-spec sets whose views one thread keeps before it forgets them
_VIEWS = 256


def scratch(specs: tuple, padded: Optional[tuple] = None) -> list:
    """This thread's slot arrays for one block's slot *specs*
    (``((dtype, shape), ...)``, :attr:`_Block.scratch`): views carved
    from the thread's one arena buffer, the same views on every later
    call — so a warm kernel call allocates nothing.  The buffer grows to
    the largest slot set the thread has used (and drops the memoized
    views when it does); every block's slots share it, which is safe
    because a call finishes with its slots before the next on the same
    thread starts.  Each thread owns its arena (the serve executor and
    the threaded MPI stub run kernels concurrently).

    With *padded* — the row-major layout ``(h0, W1, ...)`` a span
    block's rows share, every slot of which spans the block's lanes
    ``(h0, h1, ...)`` — the slots are **span** slots of that shape, and
    the result is ``(flat, nd)``: per slot its first lanes up to the
    block's last as one flat run (what the kernel writes) and the
    lane-shaped view ``[:, :h1, ...]`` of it (what the store reads)."""
    arena = _ARENA.__dict__
    views = arena.get("views")
    if views is None:
        views = arena["views"] = {}
    key = specs if padded is None else ("span", specs, padded)
    s = views.get(key)
    if s is not None:
        return s
    lanes = specs[0][1] if specs else ()
    if padded is not None:
        specs = tuple((dtype, padded) for dtype, _ in specs)
    sizes = [math.prod(shape) * np.dtype(dtype).itemsize
             for dtype, shape in specs]
    room = [-(-n // _ALIGN) * _ALIGN for n in sizes]
    need = sum(room)
    buf = arena.get("buf")
    grow = need > (0 if buf is None else buf.size)
    if grow or len(views) >= _VIEWS:
        views.clear()  # nothing holds an old view once its call is done
    if grow:
        buf = arena["buf"] = np.frombuffer(
            mmap.mmap(-1, need, flags=mmap.MAP_PRIVATE), np.uint8)
    flat, at = [], 0
    for (dtype, _), n, r in zip(specs, sizes, room):
        flat.append(buf[at:at + n].view(dtype))
        at += r
    s = [a.reshape(shape) for a, (_, shape) in zip(flat, specs)]
    if padded is not None:
        end = 0  # the last lane's offset in the padded layout, then + 1
        for h, w in zip(lanes, padded):
            end = end * w + h - 1
        end += 1
        crop = (slice(None),) + tuple(slice(h) for h in lanes[1:])
        s = [a[:end] for a in flat], [a[crop] for a in s]
    views[key] = s
    return s


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
    scratch: tuple = ()             # ``_s``: per slot ``(dtype, shape)``
                                    # on this block (:func:`scratch`)
    #: the block may run as one flat span per read (``machine.fused``):
    #: it is its node's whole lane set over >= 2 loop dims, stores
    #: through a view, has reads and every read row is a flat region of
    #: memory (or a pre-state copy of one), and the body reads no ``_i``
    #: and no guard
    span: bool = False


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
class NodeKernel:
    """One node's kernel: everything but the data — the one node type
    of every executor.  The distributed schedule sends first, commits
    ``interior`` while messages fly and ``blocks`` after the drain: the
    <= 2*ndim boundary strips over real transports (``gdist``), the
    node's whole ``Modify_p`` in one block in process (``dist``, where
    no message is in flight to overlap).  The shared one is the
    degenerate case: no sends, every read resident, one block."""

    p: int                          # the node
    shape: tuple                    # lane shape: |Modify_p| per loop dim
    reads: tuple = ()
    blocks: tuple = ()              # lane blocks in commit order
    sends: tuple = ()
    interior: Optional[_Block] = None
    #: lanes of the `split-interior` interior (committed as ``interior``
    #: or not): what the latency model charges before the drain
    inner: int = 0
    #: array -> per-axis ``(lo, hi)`` ghost widths this node's regions of
    #: it are shifted by (``dist`` flavor: ``LocalMemory.frame``)
    margins: Dict[str, tuple] = field(default_factory=dict)
    #: per node the kernel runs ``(p, lane count, where they sit in the
    #: block)`` — a position :class:`Region` on a guarded ``union``
    #: kernel (its mask counts the node's stores), else ``None``
    parts: tuple = ()

    @property
    def n(self) -> int:
        return math.prod(self.shape)

    @property
    def commits(self) -> tuple:
        """Every block, in commit order."""
        return self.blocks if self.interior is None \
            else (self.interior, *self.blocks)


#: flavor -> (node-local address map?, distributed schedule?): the
#: simulator's ``dist`` nodes address their own memories and commit one
#: block each after the drain, the real processes run the same schedule
#: over the global arrays and overlap the interior with their messages
#: (``gdist``); ``union`` is the §2.9 template, one block per process
#: over its nodes' lanes, every read resident
_FLAVORS = {"union": (False, False), "dist": (True, True),
            "gdist": (False, True)}


def owner(p: int, pmax: int, nprocs: int) -> int:
    """The process of *nprocs* that runs node *p* of *pmax*: each owns a
    contiguous run of node ids (on a row-major grid, whole grid rows)."""
    return p * nprocs // pmax


_REPLICATED = "replicated write (per-copy broadcast)"


@dataclass
class FusedKernels:
    """Everything ``backend="fused"`` needs: the source, and per flavor
    the node kernels or why there are none (:func:`flavor_nodes`)."""

    source: str
    rhs: Callable
    guard: Optional[Callable]
    nreads: int
    write_name: str
    used: tuple = ()                # loop dims whose ``_i`` the source reads
    slots: tuple = ()               # per ``_s`` slot ``(dtype, loop dims)``
    #: the source text KRN002 passed when it was compiled (an entry is
    #: only built from a clean one): the verifier's verdict, read back
    audited: Optional[str] = field(default=None, repr=False)
    #: process count -> its ``union`` kernels (one per run of nodes)
    union: Dict[int, List[NodeKernel]] = field(default_factory=dict)
    union_note: Optional[str] = None
    dist: Optional[List[NodeKernel]] = None
    dist_note: Optional[str] = None
    gdist: Optional[List[NodeKernel]] = None
    gdist_note: Optional[str] = None
    #: makes building a flavor (and lowering an envelope) single-flight
    lock: object = field(default_factory=threading.RLock, repr=False,
                         compare=False)
    #: install envelopes of :mod:`repro.runtime.lowering`, per flavor
    #: (``union``: per ``("union", process count)``)
    mp_programs: Dict[object, object] = field(default_factory=dict)
    #: the kernel-cache key the entry is stored under (:func:`recount`)
    cache_key: Optional[tuple] = field(default=None, repr=False,
                                       compare=False)

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
        for name in self.__dataclass_fields__.keys() - {"cache_key"}:
            for x in _leaves(getattr(self, name), 1):
                distinct[id(x)] = x
                if name in _FLAVORS and isinstance(x, Region):
                    out[name]["slice" if x.sliced else "vector"] += 1
        out["bytes"] = _nbytes(distinct.values())
        return out

    def built(self) -> Dict[str, list]:
        """flavor -> node kernels, of the flavors built so far (the
        ``union`` flavor's for every process count)."""
        union = [nk for nodes in self.union.values() for nk in nodes]
        out = {"union": union or None, "dist": self.dist, "gdist": self.gdist}
        return {f: nodes for f, nodes in out.items() if nodes is not None}

    def describe(self) -> str:
        stats, built = self.region_stats, self.built()
        parts = []
        for flavor, label in (("union", "shared"), ("dist", "distributed"),
                              ("gdist", "real-process distributed")):
            nodes, note = built.get(flavor), getattr(self, flavor + "_note")
            if nodes is not None:
                ghost: Dict[str, tuple] = {}  # the widest frame of any node
                for nk in nodes:
                    for name, m in nk.margins.items():
                        ghost[name] = _widest(m, ghost.get(name, m))
                parts.append(
                    f"{label}: " + (f"{len(nodes)} node kernels"
                                    if flavor != "union" else "one kernel"
                                    if len(nodes) == 1
                                    else f"{len(nodes)} kernels") +
                    f" ({stats[flavor]['slice']} slice / "
                    f"{stats[flavor]['vector']} vector regions" + "".join(
                        f", ghost {name}"
                        f"[{', '.join(f'{lo}:{hi}' for lo, hi in m)}]"
                        for name, m in ghost.items()) + ")")
            elif note is not None:
                parts.append(f"{label}: dict-memory fallback ({note})")
            else:
                parts.append(f"{label}: built on first use")
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


def _runs(ir, lanes, nprocs: int, guarded: bool) -> list:
    """The ``union`` flavor's lane sets on *nprocs* processes, each
    ``(lane key per loop dim, its parts)``: per process ONE set, the
    per-dim join of the *lanes* of the nodes it owns (:func:`owner`).
    Over every node that is the loop range when the node lane counts sum
    to its size (O(1)), else the join, which a write that is not
    replicated must tile exactly (a count that does not add up is a
    wrong plan); a run of fewer nodes joins in closed form
    (:func:`chain`) or splits into one set per node (Scatter)."""
    counts = [math.prod(map(klen, row)) for row in lanes]
    owned, nd, pmax = not ir.write.replicated, len(ir.loop_bounds), len(lanes)
    out = []
    for r in range(nprocs):
        run = [p for p in range(pmax) if owner(p, pmax, nprocs) == r]
        n = sum(counts[p] for p in run)
        union = [prog(lo, 1, hi - lo + 1) for lo, hi in ir.loop_bounds]
        if nprocs > 1 or not owned or n != math.prod(map(klen, union)):
            union = [(chain if nprocs > 1 else join)(
                [lanes[p][d] for p in run]) for d in range(nd)]
        if all(k is not None for k in union) and (
                not owned or n == math.prod(map(klen, union))):
            sets = [(union, run)]
        elif nprocs == 1:
            raise KernelBuildError(
                f"the nodes' {n} lanes do not tile the "
                f"{math.prod(map(klen, union))}-lane product of their union")
        else:
            sets = [(lanes[p], [p]) for p in run]
        out += [(keys, tuple((p, counts[p], Region(
            [locate(k, u) for k, u in zip(lanes[p], keys)], range(nd),
            tuple(map(klen, lanes[p]))) if guarded and counts[p] else None)
            for p in nodes)) for keys, nodes in sets]
    return out


def _build_nodes(ir, local: bool, dist: bool, k, union: int = 0) -> list:
    """The one lane-plan builder, from the accesses' membership keys
    (:meth:`PlanIR.member_keys`), for every executor.  *local* selects
    the address map — node-local slots through the decompositions'
    ``owned_indices`` / ``local_indices`` pairs, or the identity (the
    global arrays) — and *dist* the schedule shape: sends and fills, or
    every read a resident gather.  The interior of the split commits as
    its own block only over the global arrays — real processes, whose
    messages are in flight meanwhile; node-local (in-process) nodes
    commit one block each after the drain.  *k* is the plan's
    :class:`FusedKernels`: the loop dims its body reads and its slots.
    With *union*, a process count, a kernel runs one set of
    :func:`_runs` as one block."""
    write, nd, used = ir.write, len(ir.loop_bounds), k.used
    lanes = ir.member_keys(write)
    runs = _runs(ir, lanes, union, ir.clause.guard is not None) \
        if union else None
    if runs:
        lanes = [keys for keys, _ in runs]
    nodes = range(len(lanes))
    if dist and write.replicated:
        raise KernelBuildError(_REPLICATED)
    for acc in ir.accesses() if dist else ():
        if len(acc.axes) != len(acc.funcs):
            raise KernelBuildError(
                f"{acc.label} {acc.name!r} carries no decomposition placing "
                "it axis by axis")
    remote = [acc for acc in ir.reads if dist and not acc.replicated]
    # a flat span holds no index grid and no mask; every slot spans it
    flat_body = nd >= 2 and not used and ir.clause.guard is None and all(
        dims == tuple(range(nd)) for _, dims in k.slots)
    slots: Dict[tuple, tuple] = {}
    where: Dict[tuple, list] = {}
    out: list = []

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
                      region(write, p, loop.keys, shape), loop.grids(used),
                      tuple((dtype, tuple(n if d in dims else 1
                                          for d, n in enumerate(shape)))
                            for dtype, dims in k.slots))

    # per remote read: its residence, and who gathers what from whom
    reside = {acc.pos: ir.member_keys(acc) for acc in remote}
    moves = {(acc.pos, q, s): sub(q, both) for acc in remote
             for (q, s), both in exchange(lanes, reside[acc.pos]).items()}

    for p in nodes:
        shape = tuple(klen(i) for i in lanes[p])
        nk = NodeKernel(p, shape, parts=((p, math.prod(shape), None),))
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
        whole = [prog(0, 1, n) for n in shape]
        # a store that is not a plain view may repeat an address: it
        # commits as one block, in lexicographic lane order
        if inner and all(klen(j) for j in inner) and region(
                write, p, [compose(i, j) for i, j in zip(lanes[p], whole)],
                shape).view:
            nk.inner = math.prod(map(klen, inner))
        if nk.inner and not local:
            nk.interior = block(p, inner)
            nk.blocks = tuple(block(p, pos) for pos in _strips(inner, shape))
        else:
            nk.blocks = (block(p, whole),)
            nk.blocks[0].span = flat_body and nk.blocks[0].write.view \
                and bool(reads) and all(r.lanes is None and r.mem.flat
                                        for r in reads)
    for nk, (_, parts) in zip(out, runs or ()):
        nk.p, nk.parts = parts[0][0], parts
    return out


def build_kernels(ir) -> FusedKernels:
    """Lower one compiled Plan IR to its fused kernels — the source,
    no nodes yet.  Raises :class:`KernelBuildError` when *no* fused form
    exists, as far as that is decided without per-node work."""
    clause = ir.clause
    if clause.ordering is not Ordering.PAR:
        raise KernelBuildError(
            "sequential (•) clause is a serial chain; scalar path kept")
    if ir.write is None:
        raise KernelBuildError("plan carries no substituted write access")
    for acc in ir.accesses():
        if not acc.funcs or len(set(acc.dims)) != len(acc.dims):
            raise KernelBuildError(
                f"{acc.label} {acc.name!r} has no separable access "
                "functions over distinct loop dims")
    source, rhs, guard, used, slots = _emit_source(clause)
    return FusedKernels(
        source=source, rhs=rhs, guard=guard, nreads=len(ir.reads),
        write_name=ir.write.name, used=tuple(sorted(used)), slots=slots,
        audited=source,
        dist_note=_REPLICATED if ir.write.replicated else None,
    )


def _built(k, flavor: str, procs: int) -> Optional[list]:
    """*flavor*'s node kernels on *k*, or ``None`` (not built yet)."""
    return k.union.get(procs) if flavor == "union" else getattr(k, flavor)


def flavor_nodes(ir, flavor: str, strict: bool = False,
                 error=KernelBuildError, procs: int = 1) -> list:
    """One flavor's node kernels of a compiled plan (``union``: for
    *procs* processes), built on first use (once per cache entry,
    however many threads ask), charged to the kernel cache and
    bounds-audited (KRN001) as they land: a finding refuses the flavor,
    so no node kernel runs unaudited.  Raises *error* with the reason
    the plan has no such form —
    :class:`~repro.machine.fused.FusedStrictError` for a refusal under
    *strict*."""
    k = ir.kernels
    with k.lock:
        if _built(k, flavor, procs) is None \
                and getattr(k, flavor + "_note") is None:
            from ..analysis.kernel_sanitizer import _check_bounds

            try:
                nodes = _build_nodes(ir, *_FLAVORS[flavor], k,
                                     union=procs) if flavor == "union" \
                    else _build_nodes(ir, *_FLAVORS[flavor], k)
                found = _check_bounds(ir, flavor, nodes)
                if found:
                    raise KernelBuildError(f"KRN001: {found[0].message}")
            except KernelBuildError as e:
                setattr(k, flavor + "_note", str(e))
            except Exception as e:  # enumerator/placement surprises
                setattr(k, flavor + "_note", f"{type(e).__name__}: {e}")
            else:
                if flavor == "union":
                    k.union[procs] = nodes
                else:
                    setattr(k, flavor, nodes)
                recount(ir, nodes)
    nodes, note = _built(k, flavor, procs), getattr(k, flavor + "_note")
    if nodes is not None:
        return nodes
    if strict and note.startswith("KRN"):
        from ..machine.fused import FusedStrictError as error

        note = f"execution refused under --strict: kernel sanitizer " \
            f"flagged {note}"
    raise error(note)


def recount(ir, landed) -> None:
    """Charge *landed* — something built on demand onto ``ir.kernels``
    after its cache entry was sized (a flavor's nodes) — to the kernel
    cache's byte budget."""
    ir.kernels.__dict__.pop("region_stats", None)
    if ir.kernels.cache_key is not None and kernel_cache.enabled:
        kernel_cache.grow(ir.kernels.cache_key, _nodes_nbytes(landed))


# ---------------------------------------------------------------------------
# the kernel cache
# ---------------------------------------------------------------------------


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


def _nodes_nbytes(nodes) -> int:
    """:func:`_approx_nbytes` of node kernels, read off their fields
    instead of walked: each region, lane grid and name once."""
    parts = {id(x): x for nk in nodes for x in itertools.chain(
        *((b.pos, b.loop, b.write, *b.grids) for b in nk.commits),
        *((r.name, r.mem, r.lanes, *(g for _, g in r.sources))
          for r in nk.reads),
        *((s.name, *(g for _, g in s.peers)) for s in nk.sends),
        (pos for _, _, pos in nk.parts))
        if x is not None}
    return _nbytes(parts.values())


#: default resident-byte budget for the kernel cache (256 MiB);
#: override with ``REPRO_CACHE_BYTES`` (read at construction time)
_DEFAULT_MAX_BYTES = 256 * 1024 * 1024


class KernelCache(_StructuralCache):
    """Thread-safe, size-accounted LRU cache of :class:`FusedKernels`,
    keyed by the plan cache's structural keys — warm recompiles skip
    codegen entirely.  Eviction fires on *either* bound: entry count
    (``maxsize`` / ``REPRO_CACHE_SIZE``) or resident bytes
    (``max_bytes`` / ``REPRO_CACHE_BYTES``, counting the regions' vector
    keys, generated source and everything lowered onto the entry later:
    :func:`recount` charges it)."""

    def __init__(self, maxsize: Optional[int] = None,
                 max_bytes: Optional[int] = None):
        super().__init__(maxsize)
        self.max_bytes = (_env_number("REPRO_CACHE_BYTES", _DEFAULT_MAX_BYTES)
                          if max_bytes is None else max_bytes)
        self.bytes = 0
        self._sizes: Dict[tuple, int] = {}

    def store(self, key: tuple, kernels: FusedKernels) -> None:
        nbytes = kernels.region_stats["bytes"]  # walked outside the lock
        with self._lock:
            self.bytes += nbytes - self._sizes.pop(key, 0)
            self._entries[key] = kernels
            self._entries.move_to_end(key)
            self._sizes[key] = nbytes
            self._evict()

    def grow(self, key: tuple, nbytes: int) -> None:
        """A resident entry grew by *nbytes* after it was stored."""
        with self._lock:
            if key not in self._sizes:
                return
            self._sizes[key] += nbytes
            self.bytes += nbytes
            self._evict()

    def _evict(self) -> None:
        """Drop oldest entries until both bounds hold (lock held)."""
        while len(self._entries) > 1 and (
                len(self._entries) > self.maxsize
                or self.bytes > self.max_bytes):
            k, _ = self._entries.popitem(last=False)
            self.bytes -= self._sizes.pop(k, 0)
            self.evictions += 1

    def _zero(self) -> None:
        super()._zero()
        self._sizes.clear()
        self.bytes = 0

    def _info(self) -> Dict[str, object]:
        return {**super()._info(), "bytes": self.bytes,
                "max_bytes": self.max_bytes}


#: process-global kernel cache (cleared alongside the plan cache)
kernel_cache = KernelCache()


def kernel_cache_info() -> Dict[str, object]:
    return kernel_cache.info()


def clear_kernel_cache() -> None:
    kernel_cache.clear()
    compile_kernel.cache_clear()


def _kernel_key(ir) -> Optional[tuple]:
    """The plan key ``compile_plan`` put on the trace, or computed here
    when none was set (custom passes, a disabled plan cache)."""
    key = ir.trace.cache_key
    if key is None:
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
        kernels.cache_key = key
        kernel_cache.store(key, kernels)
    return [f"compiled fused kernels: {kernels.describe()}"]
