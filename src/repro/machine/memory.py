"""Per-node local memories, the one allocator of node memory, and
decomposition-aware load/store.

``A'`` — the machine image of a decomposed structure ``A`` (paper Eq. (2))
— materializes here as one local numpy array per processor, indexed by the
decomposition's ``local`` function.  ``scatter_global``/``gather_global``
move whole structures, 1-D or grid-decomposed, between the global (host)
view and the node memories, which is how experiment harnesses initialize
and check runs.

Every node-memory buffer comes from :func:`lease`: a buffer of at least
one page is taken from a process-wide free list and goes back to it when
the leased array and every view of it are gone, so a caller placing the
same shapes round after round writes into warm memory.  Only memory
survives from one machine to the next, never data: placement writes
every slot a view can reach.
"""

from __future__ import annotations

import math
import mmap
import os
import threading
import weakref
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..decomp.multidim import GridDecomposition
from ..decomp.replicated import Replicated

__all__ = ["LocalMemory", "clear_leases", "gather_global", "lease",
           "lease_info", "scatter_global"]


class _Lease(weakref.ref):
    """The weak reference watching one leased base; holds its buffer."""

    __slots__ = ("raw",)


class _Pool:
    """The free list behind :func:`lease`.

    The weakref callback only appends the buffer to ``_back`` and takes
    no lock, so a gc pass that fires it anywhere — on a thread holding
    the lock too — cannot deadlock; :meth:`_file` moves given-back
    buffers to ``_free`` under the lock.

    Buffers are private mappings: a forked child sees the parent's node
    memory copy-on-write, as it would ``np.zeros`` memory, and
    :meth:`_after_fork` drops the free list it inherits, so parent and
    child never lease the same buffer."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: idle buffers, the warmest first
        self._free: List[mmap.mmap] = []
        #: id -> the weak reference of every leased base still alive
        self._out: Dict[int, _Lease] = {}
        #: buffers given back, not yet filed
        self._back: List[mmap.mmap] = []
        self.leases = self.reused = 0
        self.live = self.peak = self.free_bytes = 0

    def lease(self, shape, dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        count = math.prod(shape)
        size = count * dtype.itemsize
        if size < mmap.PAGESIZE or dtype.hasobject:
            return np.empty(shape, dtype)
        cap = -(-size // mmap.PAGESIZE) * mmap.PAGESIZE
        if self._back:
            self._file()
        raw = None
        with self._lock:
            for k, idle in enumerate(self._free):
                if len(idle) == cap:
                    raw = self._free.pop(k)
                    self.reused += 1
                    self.free_bytes -= cap
                    break
            self.leases += 1
            self.live += cap
            self.peak = max(self.peak, self.live)
        if raw is None:
            raw = mmap.mmap(-1, cap, flags=mmap.MAP_PRIVATE)
        # the frombuffer array is the base every view of it keeps alive
        base = np.frombuffer(raw, dtype, count)
        ref = _Lease(base, self._give_back)
        ref.raw = raw
        self._out[id(ref)] = ref
        return base.reshape(shape)

    def _give_back(self, ref: _Lease) -> None:
        del self._out[id(ref)]
        self._back.append(ref.raw)

    def _file(self) -> None:
        """File every given-back buffer, evicting the oldest idle ones
        while free bytes exceed the peak of leased bytes live at once."""
        with self._lock:  # callbacks only append: the pops cannot race
            while self._back:  # in give-back order: the last one warmest
                raw = self._back.pop(0)
                self.live -= len(raw)
                self.free_bytes += len(raw)
                self._free.insert(0, raw)
            while self.free_bytes > self.peak:
                self.free_bytes -= len(self._free.pop())

    def info(self) -> Dict[str, int]:
        self._file()
        with self._lock:
            return {"leases": self.leases, "reused": self.reused,
                    "free_bytes": self.free_bytes, "peak_bytes": self.peak}

    def clear(self) -> None:
        self._file()
        with self._lock:
            idle, self._free = self._free, []
            self.free_bytes = self.leases = self.reused = 0
            self.peak = self.live
        del idle  # unmapped outside the lock

    def _after_fork(self) -> None:
        """In a forked child: a new lock, and no idle buffer the parent
        may lease too.  Buffers still leased here return to the child's
        own list when their arrays go."""
        self._lock = threading.Lock()
        self._file()
        self._free = []
        self.free_bytes = 0


_POOL = _Pool()
os.register_at_fork(after_in_child=_POOL._after_fork)


def lease(shape, dtype=np.float64) -> np.ndarray:
    """An uninitialised C-contiguous array of *shape* for node memory.

    At least one page (``mmap.PAGESIZE``) comes from the process-wide
    free list and returns to it once the array and every view of it are
    gone (a weakref on the leased base, which NumPy views keep alive);
    smaller arrays (and object arrays, which raw memory cannot hold) are
    plain ``np.empty``, where the lifetime hook would cost more than the
    allocation.  Idle bytes never exceed the peak of leased bytes live at
    once, an all-time peak that only :func:`clear_leases` lowers.  The
    buffers are private mappings, copy-on-write across a fork."""
    return _POOL.lease(shape, dtype)


def lease_info() -> Dict[str, int]:
    """``cache_stats()["node_memory"]``: pooled ``leases`` (of at least a
    page), how many were ``reused`` from the free list, its
    ``free_bytes`` and the ``peak_bytes`` of leased memory live at once."""
    return _POOL.info()


def clear_leases() -> None:
    """Empty the free list and reset its counters (``clear_all_caches``)."""
    _POOL.clear()


def _put(core, values, local=None) -> None:
    """Write *values* into *core* at the per-axis *local* parts (the
    whole core when None); local slots outside dense parts are zeroed
    first."""
    if local is None:
        core[...] = values
        return
    if not _dense(local, core.shape):
        core.fill(0)
    core[_product(local, core.shape)] = values


def _lease_frame(shape, dtype, have, values,
                 local=None) -> Tuple[np.ndarray, np.ndarray]:
    """A leased buffer holding a *shape* core with ``have[k] = (lo, hi)``
    ghost cells on axis *k*: the core written by :func:`_put`, then the
    ghost cells zeroed, each once — after the core, while the rows they
    sit in are still in cache.  Returns ``(buffer, core)``."""
    buf = lease([lo + n + hi for (lo, hi), n in zip(have, shape)], dtype)
    inner = tuple(slice(lo, lo + n) for (lo, _), n in zip(have, shape))
    core = buf[inner]
    _put(core, values, local)
    pre: tuple = ()
    for (lo, hi), n, axis in zip(have, shape, inner):
        if lo:
            buf[pre + (slice(0, lo),)] = 0
        if hi:
            buf[pre + (slice(lo + n, None),)] = 0
        pre += (axis,)
    return buf, core


class LocalMemory:
    """Named local arrays of one node."""

    def __init__(self, p: int):
        self.p = p
        #: name -> the **core**: what placement and every ``mem[name]`` see
        self.arrays: Dict[str, np.ndarray] = {}
        #: the frame registry: name -> (core, frame buffer, its per-axis
        #: (lo, hi) margins, {margins asked for: the view handed out})
        self._frames: Dict[str, tuple] = {}

    def place(self, name: str, shape, dtype, values, local=None,
              margins=None) -> np.ndarray:
        """A new leased core for *name* holding *values* at the per-axis
        *local* parts (the whole core when None; its other slots zero).

        With *margins* (per-axis ``(lo, hi)``) the core sits inside a
        ghost frame of that width from the start, its ghost cells zeroed,
        as :meth:`frame` would grow it; otherwise any frame of *name* is
        dropped."""
        if margins is None or not any(lo or hi for lo, hi in margins):
            self._frames.pop(name, None)
            core = lease(shape, dtype)
            _put(core, values, local)
        else:
            margins = tuple(margins)
            buf, core = _lease_frame(shape, dtype, margins, values, local)
            self._frames[name] = (core, buf, margins, {})
        self.arrays[name] = core
        return core

    def frame(self, name: str, margins) -> np.ndarray:
        """Array *name* with ghost cells: a view holding the core at
        offset ``lo`` with ``margins[k] = (lo, hi)`` spare cells on axis
        *k*, where received halo strips land beside the tile.

        The first request moves the core into a wider buffer once
        (``arrays[name]`` becomes a view of it), a wider one grows it, a
        covered one is a sub-view; a re-placement (a new
        ``arrays[name]``) drops the frame.  A repeated request returns
        the view it got last time."""
        core = self.arrays[name]
        held = self._frames.get(name)
        buf, old, views = held[1:] if held is not None and held[0] is core \
            else (core, ((0, 0),) * core.ndim, {})
        if margins in views:
            return views[margins]
        have = tuple((max(lo, a), max(hi, b))
                     for (lo, hi), (a, b) in zip(margins, old))
        if have != old:
            buf, core = _lease_frame(core.shape, core.dtype, have, core)
            self.arrays[name] = core
            views = {}
            self._frames[name] = (core, buf, have, views)
        views[margins] = buf[tuple(
            slice(a - lo, a + n + hi)
            for (lo, hi), (a, _), n in zip(margins, have, core.shape))]
        return views[margins]

    def alloc(self, name: str, size: int, dtype=np.float64) -> np.ndarray:
        """A zeroed 1-D core of *size* slots for *name*."""
        return self.place(name, (max(size, 0),), dtype, 0)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def __contains__(self, name: str) -> bool:
        return name in self.arrays

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}[{v.size}]" for k, v in self.arrays.items())
        return f"LocalMemory(p={self.p}: {inner})"


# ---------------------------------------------------------------------------
# placement: one function for 1-D and grid decompositions
# ---------------------------------------------------------------------------

def _parts(d, p: int):
    """``(owned parts, local parts, local shape)`` of node *p*, one entry
    per axis — a 1-D decomposition is a grid of one axis."""
    if isinstance(d, GridDecomposition):
        return d.owned_indices(p), d.local_indices(p), d.local_shape(p)
    return (d.owned_indices(p),), (d.local_indices(p),), (d.local_size(p),)


def _global_shape(d) -> tuple:
    return d.shape if isinstance(d, GridDecomposition) else (d.n,)


def _product(parts, shape):
    """NumPy index selecting the Cartesian product of per-axis index sets:
    the parts themselves for one axis or when every axis is an ``l:u:s``
    triplet, an open mesh (``np.ix_``) otherwise."""
    if len(parts) == 1 or all(isinstance(s, slice) for s in parts):
        return tuple(parts)
    return np.ix_(*(
        np.arange(*s.indices(n)) if isinstance(s, slice) else s
        for s, n in zip(parts, shape)
    ))


def _dense(parts, shape) -> bool:
    """Do the local parts name every slot of the core?"""
    for s, n in zip(parts, shape):
        if not (isinstance(s, slice) and s.indices(n) == (0, n, 1)):
            return False
    return True


def scatter_global(
    name: str,
    global_array: np.ndarray,
    d,
    memories: List[LocalMemory],
    margins: Optional[Mapping[int, tuple]] = None,
) -> None:
    """Distribute *global_array* into the node memories according to *d*
    (a 1-D or grid decomposition).

    One array assignment per node, from the decomposition's closed forms
    (``owned_indices``/``local_indices``), into a leased core that is
    never a view of *global_array*.  Replicated structures land whole on
    every node.  A node holds what it owns; local slots it does not own
    (a user ``local`` may skip some) are zero.  *margins* (node -> per-axis
    ``(lo, hi)``) places a node's core inside a zeroed ghost frame of that
    width (:meth:`LocalMemory.place`); otherwise :meth:`LocalMemory.frame`
    adds the margin a clause derives on first use.
    """
    shape = _global_shape(d)
    if np.shape(global_array) != shape:
        raise ValueError(
            f"array {name!r} has shape {np.shape(global_array)}, "
            f"decomposition covers {shape}"
        )
    if len(memories) != d.pmax:
        raise ValueError(
            f"{len(memories)} node memories for decomposition pmax={d.pmax}"
        )
    for p, mem in enumerate(memories):
        owned, local, local_shape = _parts(d, p)
        mem.place(name, local_shape, global_array.dtype,
                  global_array[_product(owned, shape)], local,
                  margins and margins.get(p))


def gather_global(
    name: str,
    d,
    memories: List[LocalMemory],
    dtype=np.float64,
) -> np.ndarray:
    """Reassemble the global view of a decomposed structure (1-D or grid).

    The owned sets partition the global index space, so every element of
    the result is written once.  For replicated structures node 0's copy
    is returned (all copies are asserted identical, NaNs equal — a
    write-all-copies invariant check).
    """
    if isinstance(d, Replicated):
        ref = memories[0][name]
        for mem in memories[1:]:
            if not np.array_equal(mem[name], ref, equal_nan=True):
                raise AssertionError(
                    f"replicated array {name!r} diverged between nodes"
                )
        return np.array(ref, copy=True)
    shape = _global_shape(d)
    out = np.empty(shape, dtype=dtype)
    for p, mem in enumerate(memories):
        core = mem[name]
        owned, local, _ = _parts(d, p)
        out[_product(owned, shape)] = core[_product(local, core.shape)]
    return out
