"""Decomposition interface (paper Section 2.6).

A decomposition of a one-dimensional data structure ``A`` with index set
``0:n-1`` over ``pmax`` processors is the pair of total functions

    ``proc : 0:n-1 -> 0:pmax-1``  and  ``local : 0:n-1 -> 0:k``

allocating each element to a processor and a local-memory slot.  In V-cal
terms this is the view ``V = (∅, dp, ip)`` with
``ip(j) = (proc(j), local(j))`` that replaces ``A`` by its machine image
``A'`` (Eq. (2)).

The interface also exposes the inverse ``global_index(p, l)`` and the owned
set per processor, which the distributed-memory template and the
redistribution generator need.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple, Union

import numpy as np

from ..core.indexset import IndexSet
from ..core.view import GeneralMap, View

__all__ = ["Decomposition"]


class Decomposition:
    """Mapping of the global index range ``0:n-1`` onto ``pmax`` processors."""

    #: short class tag used in reports ("block", "scatter", "blockscatter", ...)
    kind: str = "abstract"

    #: True for fully replicated structures (reads always local)
    is_replicated: bool = False

    def __init__(self, n: int, pmax: int):
        if n < 0:
            raise ValueError("n must be >= 0")
        if pmax < 1:
            raise ValueError("pmax must be >= 1")
        self.n = int(n)
        self.pmax = int(pmax)

    # -- the two defining functions -----------------------------------------

    def proc(self, i: int) -> int:
        """Owning processor of global element *i*."""
        raise NotImplementedError

    def local(self, i: int) -> int:
        """Local-memory slot of global element *i* on ``proc(i)``."""
        raise NotImplementedError

    # -- ndarray forms -------------------------------------------------------

    def proc_array(self, idx):
        """``proc`` over an integer ndarray.

        Subclasses with closed-form placement override this with pure
        array arithmetic; the default evaluates element-wise (correct for
        any decomposition).
        """
        idx = np.asarray(idx, dtype=np.int64)
        return np.fromiter(
            (self.proc(int(i)) for i in idx.ravel()),
            dtype=np.int64, count=idx.size,
        ).reshape(idx.shape)

    def local_array(self, idx):
        """``local`` over an integer ndarray (see :meth:`proc_array`)."""
        idx = np.asarray(idx, dtype=np.int64)
        return np.fromiter(
            (self.local(int(i)) for i in idx.ravel()),
            dtype=np.int64, count=idx.size,
        ).reshape(idx.shape)

    # -- placement as NumPy indices ----------------------------------------------

    def owned_indices(self, p: int) -> Union[slice, np.ndarray]:
        """``owned(p)`` as a NumPy index into the global array: a ``slice``
        where the owned set is a single ``l:u:s`` triplet, an increasing
        int64 array otherwise.

        The machine layer places and collects whole nodes with this (one
        array assignment instead of one ``local(i)`` call per element).
        The default materializes :meth:`owned` — correct for any
        decomposition, but per-element; closed-form subclasses override.
        """
        return np.asarray(self.owned(p), dtype=np.int64)

    def local_indices(self, p: int) -> Union[slice, np.ndarray]:
        """Local slots of ``owned_indices(p)``, element for element."""
        own = self.owned_indices(p)
        if isinstance(own, slice):
            own = np.arange(*own.indices(self.n), dtype=np.int64)
        return self.local_array(own)

    # -- caching ---------------------------------------------------------------

    def cache_key(self) -> Tuple:
        """Structural identity for compile-time caches (Table I memoization,
        the compiled-plan cache).  Two decompositions with equal keys must
        have identical ``proc``/``local`` behaviour; subclasses carrying
        extra parameters extend the tuple.  Return ``None`` to opt a
        decomposition out of caching (e.g. behaviour driven by mutable or
        opaque state)."""
        return (type(self).__name__, self.n, self.pmax)

    # -- derived ---------------------------------------------------------------

    def place(self, i: int) -> Tuple[int, int]:
        """``ip(i) = (proc(i), local(i))``."""
        self._check(i)
        return self.proc(i), self.local(i)

    def global_index(self, p: int, l: int) -> int:
        """Inverse of :meth:`place`.

        Default implementation scans the owned set; subclasses override
        with closed forms.
        """
        for i in self.owned(p):
            if self.local(i) == l:
                return i
        raise KeyError(f"no global element at (p={p}, l={l})")

    def owned(self, p: int) -> List[int]:
        """Global indices owned by processor *p*, increasing.

        Default is the naive scan; subclasses provide closed forms.
        """
        return [i for i in range(self.n) if self.proc(i) == p]

    def local_size(self, p: int) -> int:
        """Number of local slots processor *p* needs (1 + max local index,
        so that ``local`` values index a dense local array)."""
        mx = -1
        for i in self.owned(p):
            mx = max(mx, self.local(i))
        return mx + 1

    def max_local_size(self) -> int:
        return max((self.local_size(p) for p in range(self.pmax)), default=0)

    def layout(self) -> List[int]:
        """``proc(i)`` for every i — the Fig. 2 row for this decomposition."""
        return [self.proc(i) for i in range(self.n)]

    def as_view(self) -> View:
        """The decomposition as a V-cal view ``(∅, dp, ip)`` with
        ``ip(j) = (proc(j), local(j))`` (Section 2.6)."""
        K = IndexSet.of_shape(self.pmax, self.max_local_size())
        ip = GeneralMap(lambda j: self.place(j[0]), f"(proc,local)[{self.kind}]")
        return View(K, ip, dp_name="l*u")

    # -- validation ---------------------------------------------------------------

    def _check(self, i: int) -> None:
        if not (0 <= i < self.n):
            raise IndexError(f"global index {i} out of range 0:{self.n - 1}")

    def validate(self) -> None:
        """Check the decomposition is a bijection onto (proc, local) pairs
        with dense local numbering per processor.  O(n); test helper."""
        seen = set()
        per_proc: dict[int, List[int]] = {}
        for i in range(self.n):
            p, l = self.place(i)
            if not (0 <= p < self.pmax):
                raise AssertionError(f"proc({i})={p} out of range")
            if l < 0:
                raise AssertionError(f"local({i})={l} negative")
            if (p, l) in seen:
                raise AssertionError(f"(p,l)=({p},{l}) assigned twice")
            seen.add((p, l))
            per_proc.setdefault(p, []).append(l)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n}, pmax={self.pmax})"
