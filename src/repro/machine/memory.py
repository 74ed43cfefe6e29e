"""Per-node local memories and decomposition-aware load/store.

``A'`` — the machine image of a decomposed structure ``A`` (paper Eq. (2))
— materializes here as one local numpy array per processor, indexed by the
decomposition's ``local`` function.  ``scatter_global``/``gather_global``
move whole structures between the global (host) view and the node
memories, which is how experiment harnesses initialize and check runs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from ..decomp.base import Decomposition
from ..decomp.replicated import Replicated

__all__ = ["LocalMemory", "scatter_global", "gather_global"]


class LocalMemory:
    """Named local arrays of one node."""

    def __init__(self, p: int):
        self.p = p
        #: name -> the **core**: what placement and every ``mem[name]`` see
        self.arrays: Dict[str, np.ndarray] = {}
        #: name -> (core, frame buffer, its per-axis (lo, hi) margins,
        #: {margins asked for: the view handed out})
        self._frames: Dict[str, tuple] = {}

    def frame(self, name: str, margins) -> np.ndarray:
        """Array *name* with ghost cells: a float64 view holding the
        core at offset ``lo`` with ``margins[k] = (lo, hi)`` spare cells
        on axis *k*, where received halo strips land beside the tile.

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
            buf = np.zeros([lo + n + hi
                            for (lo, hi), n in zip(have, core.shape)])
            inner = tuple(slice(lo, lo + n)
                          for (lo, _), n in zip(have, core.shape))
            buf[inner] = core
            core = self.arrays[name] = buf[inner]
            views = {}
            self._frames[name] = (core, buf, have, views)
        views[margins] = buf[tuple(
            slice(a - lo, a + n + hi)
            for (lo, hi), (a, _), n in zip(margins, have, core.shape))]
        return views[margins]

    def alloc(self, name: str, size: int, dtype=np.float64) -> np.ndarray:
        arr = np.zeros(max(size, 0), dtype=dtype)
        self.arrays[name] = arr
        return arr

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def __contains__(self, name: str) -> bool:
        return name in self.arrays

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}[{v.size}]" for k, v in self.arrays.items())
        return f"LocalMemory(p={self.p}: {inner})"


def scatter_global(
    name: str,
    global_array: np.ndarray,
    d: Decomposition,
    memories: List[LocalMemory],
) -> None:
    """Distribute *global_array* into the node memories according to *d*.

    One array assignment per node, from the decomposition's closed forms
    (``owned_indices``/``local_indices``); every node memory is a fresh
    copy, never a view of *global_array*.  Replicated structures land
    whole on every node.  A node holds what it owns; ghost cells are not
    placed — :meth:`LocalMemory.frame` adds the margin a clause derives.
    """
    if np.shape(global_array) != (d.n,):
        raise ValueError(
            f"array {name!r} has shape {np.shape(global_array)}, "
            f"decomposition covers ({d.n},)"
        )
    if len(memories) != d.pmax:
        raise ValueError(
            f"{len(memories)} node memories for decomposition pmax={d.pmax}"
        )
    for p, mem in enumerate(memories):
        local = mem.alloc(name, d.local_size(p), dtype=global_array.dtype)
        local[d.local_indices(p)] = global_array[d.owned_indices(p)]


def gather_global(
    name: str,
    d: Decomposition,
    memories: List[LocalMemory],
    dtype=np.float64,
) -> np.ndarray:
    """Reassemble the global view of a decomposed structure.

    For replicated structures node 0's copy is returned (all copies are
    asserted identical — a write-all-copies invariant check).
    """
    if isinstance(d, Replicated):
        ref = memories[0][name]
        for mem in memories[1:]:
            if not np.array_equal(mem[name], ref):
                raise AssertionError(
                    f"replicated array {name!r} diverged between nodes"
                )
        return np.array(ref, copy=True)
    out = np.zeros(d.n, dtype=dtype)
    for p, mem in enumerate(memories):
        out[d.owned_indices(p)] = mem[name][d.local_indices(p)]
    return out
