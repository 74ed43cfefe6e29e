"""Shared-memory backing for the multi-process runtime.

The parent owns every segment.  One :class:`ShmArena` (:data:`ARENA`)
lives as long as the worker pools, and each run loads its global arrays
into it (:meth:`ShmArena.load`): a segment per array, reused while the
array's ``(name, shape)`` stays the same, created for a new or resized
array, unlinked once a run no longer names it; every input is copied
in.  Only memory survives from one run to the next, never data.
Workers map each segment once, by name, and keep the mapping across
runs (:func:`repro.runtime.worker._attached`), so a warm run faults in
no page.  The gather/scatter regions the lowering precomputes address
these float64 ndarrays zero-copy: placement is one memcpy per array.

Attachment deliberately bypasses the per-process resource tracker
(``track=False`` where available, an ``unregister`` call otherwise):
only the creating parent may unlink, and a tracked attach would spawn
spurious "leaked shared_memory" warnings when a worker exits.

A module-level registry of segment names created by this process backs
:func:`unlink_leftovers`, which releases the arena (``shutdown_runtime``,
atexit, SIGTERM and every failed run go through it) — test runs must
never leak ``/dev/shm`` entries.
"""

from __future__ import annotations

import itertools
import os
import threading
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, FrozenSet, Tuple

import numpy as np

__all__ = [
    "ARENA",
    "ShmArena",
    "active_segments",
    "arena_info",
    "attach_segment",
    "unlink_leftovers",
]

_COUNTER = itertools.count()

#: names of segments created (and not yet unlinked) by this process
_ACTIVE: set = set()


def _segment_name() -> str:
    # short enough for macOS's 31-char POSIX name limit
    return f"repro-mp-{os.getpid() % 100000}-{next(_COUNTER)}"


def attach_segment(name: str,
                   untrack: bool = False) -> shared_memory.SharedMemory:
    """Attach an existing segment without taking over its cleanup (the
    creating parent owns the unlink).

    *untrack* matters only on Python < 3.13, where attaching registers
    the name with the resource tracker: a spawn-started worker has its
    own tracker and must unregister (or its exit would unlink a segment
    the parent still uses), while a fork-started worker shares the
    parent's tracker — there the duplicate registration is a set no-op
    and unregistering would strip the parent's own entry."""
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track= parameter
        seg = shared_memory.SharedMemory(name=name)
        if untrack:
            try:
                resource_tracker.unregister(seg._name, "shared_memory")
            except Exception:
                pass
        return seg


class ShmArena:
    """The shared-memory image of the last run's global arrays.

    ``views[name]`` is the parent's float64 ndarray over the segment;
    :meth:`spec` is what workers need to map their own views.  ``lock``
    is held for the length of a run, so two threads never share the
    segments mid-run.  :meth:`close` drops the views, closes and unlinks
    every segment.
    """

    def __init__(self, arrays: Dict[str, np.ndarray] = None):
        self.segs: Dict[str, shared_memory.SharedMemory] = {}
        self.views: Dict[str, np.ndarray] = {}
        self.lock = threading.Lock()
        if arrays:
            self.load(arrays)

    def load(self, arrays: Dict[str, np.ndarray]
             ) -> Dict[str, Tuple[str, Tuple[int, ...]]]:
        """Make the working set exactly *arrays*, copy each one in and
        return :meth:`spec`."""
        for name in set(self.segs) - set(arrays):
            self._drop(name)
        for name, arr in arrays.items():
            shape = np.shape(arr)
            view = self.views.get(name)
            if view is None or view.shape != shape:
                self._drop(name)
                nbytes = max(8 * int(np.prod(shape)), 8)
                seg = shared_memory.SharedMemory(create=True, size=nbytes,
                                                 name=_segment_name())
                _ACTIVE.add(seg.name)
                self.segs[name] = seg
                view = self.views[name] = np.ndarray(
                    shape, dtype=np.float64, buffer=seg.buf)
            view[...] = arr
        return self.spec()

    def spec(self) -> Dict[str, Tuple[str, Tuple[int, ...]]]:
        """``{array: (segment name, shape)}`` — the workers' attach map."""
        return {name: (seg.name, self.views[name].shape)
                for name, seg in self.segs.items()}

    def _drop(self, name: str) -> None:
        self.views.pop(name, None)
        seg = self.segs.pop(name, None)
        if seg is None:
            return
        try:
            seg.close()
        except Exception:
            pass
        try:
            seg.unlink()
        except Exception:
            pass
        _ACTIVE.discard(seg.name)

    def close(self) -> None:
        for name in list(self.segs):
            self._drop(name)


#: the runtime's one arena, shared by every pool
ARENA = ShmArena()


def arena_info() -> Dict[str, int]:
    """The arena's segment count and bytes (``cache_stats()["shm"]``)."""
    views = list(ARENA.views.values())  # a run may be loading it
    return {"segments": len(views), "bytes": sum(v.nbytes for v in views)}


def active_segments() -> FrozenSet[str]:
    """Names of segments this process created and has not unlinked."""
    return frozenset(_ACTIVE)


def unlink_leftovers() -> int:
    """Release the arena, then unlink any other segment this process
    still has registered.  Returns how many of those were reclaimed."""
    ARENA.close()
    reclaimed = 0
    for name in list(_ACTIVE):
        try:
            seg = attach_segment(name)
            seg.close()
            seg.unlink()
            reclaimed += 1
        except Exception:
            pass
        _ACTIVE.discard(name)
    return reclaimed
