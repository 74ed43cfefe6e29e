"""Multi-dimensional decompositions as per-dimension products.

The paper presents its derivations for the one-dimensional clause "for
reasons of clarity" (Section 2.6); the index-set machinery is d-dimensional
throughout.  The standard lifting — also what HPF later standardized — is a
*product decomposition*: dimension ``d`` of the array is decomposed by a
1-D decomposition over the ``d``-th axis of a processor grid, and the
owning processor is the grid point ``(proc_0(i_0), .., proc_{d-1}(i_{d-1}))``
linearized row-major.

Undistributed dimensions use :class:`Collapsed` (a single grid axis point).
"""

from __future__ import annotations

import itertools
from typing import List, Sequence, Tuple

from .base import Decomposition

__all__ = ["Collapsed", "GridDecomposition"]

Index = Tuple[int, ...]


class Collapsed(Decomposition):
    """A dimension that is not distributed: one grid coordinate, local
    index = global index."""

    kind = "collapsed"

    def __init__(self, n: int):
        super().__init__(n, 1)

    def proc(self, i: int) -> int:
        return 0

    def local(self, i: int) -> int:
        return i

    def proc_array(self, idx):
        import numpy as np

        idx = np.asarray(idx, dtype=np.int64)
        return np.zeros(idx.shape, dtype=np.int64)

    def local_array(self, idx):
        import numpy as np

        return np.asarray(idx, dtype=np.int64)

    def global_index(self, p: int, l: int) -> int:
        if p != 0 or not (0 <= l < self.n):
            raise KeyError(f"no global element at (p={p}, l={l})")
        return l

    def owned(self, p: int) -> List[int]:
        return list(range(self.n))

    def owned_indices(self, p: int) -> slice:
        return slice(0, self.n)

    local_indices = owned_indices  # local(i) = i

    def local_size(self, p: int) -> int:
        return self.n


class GridDecomposition:
    """Product of per-dimension 1-D decompositions over a processor grid.

    ``dims[d]`` decomposes axis *d*; the grid has shape
    ``(dims[0].pmax, .., dims[k].pmax)`` and processors are numbered
    row-major, so the total processor count is the product of the per-axis
    counts.
    """

    kind = "grid"

    def __init__(self, dims: Sequence[Decomposition]):
        if not dims:
            raise ValueError("need at least one dimension")
        self.dims: Tuple[Decomposition, ...] = tuple(dims)
        self.shape: Tuple[int, ...] = tuple(d.n for d in self.dims)
        self.grid_shape: Tuple[int, ...] = tuple(d.pmax for d in self.dims)
        self.pmax = 1
        for g in self.grid_shape:
            self.pmax *= g

    @property
    def ndim(self) -> int:
        return len(self.dims)

    # -- grid numbering ----------------------------------------------------

    def grid_coord(self, p: int) -> Index:
        """Row-major grid coordinates of linear processor *p*."""
        if not (0 <= p < self.pmax):
            raise IndexError(f"processor {p} out of range 0:{self.pmax - 1}")
        coord = []
        for g in reversed(self.grid_shape):
            p, c = divmod(p, g)
            coord.append(c)
        return tuple(reversed(coord))

    def linear_proc(self, coord: Sequence[int]) -> int:
        p = 0
        for c, g in zip(coord, self.grid_shape):
            if not (0 <= c < g):
                raise IndexError(f"grid coordinate {coord} out of range")
            p = p * g + c
        return p

    # -- placement -----------------------------------------------------------

    def proc(self, idx: Sequence[int]) -> int:
        return self.linear_proc(tuple(d.proc(i) for d, i in zip(self.dims, idx)))

    def local(self, idx: Sequence[int]) -> Index:
        return tuple(d.local(i) for d, i in zip(self.dims, idx))

    def place(self, idx: Sequence[int]) -> Tuple[int, Index]:
        return self.proc(idx), self.local(idx)

    def global_index(self, p: int, l: Sequence[int]) -> Index:
        coord = self.grid_coord(p)
        return tuple(
            d.global_index(c, li) for d, c, li in zip(self.dims, coord, l)
        )

    def owned(self, p: int) -> List[Index]:
        """All global index tuples owned by *p*, lexicographic."""
        coord = self.grid_coord(p)
        return list(itertools.product(
            *(d.owned(c) for d, c in zip(self.dims, coord))))

    def owned_indices(self, p: int) -> tuple:
        """Per-axis ``owned_indices`` of *p*'s grid coordinate; the owned
        set is their Cartesian product."""
        coord = self.grid_coord(p)
        return tuple(d.owned_indices(c) for d, c in zip(self.dims, coord))

    def local_indices(self, p: int) -> tuple:
        """Per-axis local slots of :meth:`owned_indices`."""
        coord = self.grid_coord(p)
        return tuple(d.local_indices(c) for d, c in zip(self.dims, coord))

    def local_shape(self, p: int) -> Index:
        coord = self.grid_coord(p)
        return tuple(d.local_size(c) for d, c in zip(self.dims, coord))

    def max_local_shape(self) -> Index:
        shapes = [self.local_shape(p) for p in range(self.pmax)]
        return tuple(
            max(s[d] for s in shapes) for d in range(self.ndim)
        )

    def cache_key(self):
        """Structural identity for compile-time caches; ``None`` (propagated
        from any per-axis decomposition that opts out) disables caching."""
        keys = tuple(d.cache_key() for d in self.dims)
        if any(k is None for k in keys):
            return None
        return (type(self).__name__,) + keys

    def validate(self) -> None:
        """Bijectivity check over the full product space (test helper)."""
        seen = set()
        for idx in itertools.product(*(range(n) for n in self.shape)):
            key = (self.proc(idx), self.local(idx))
            assert key not in seen, f"double placement at {idx}"
            seen.add(key)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(repr(d) for d in self.dims)
        return f"GridDecomposition([{inner}])"
