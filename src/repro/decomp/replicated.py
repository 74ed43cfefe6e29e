"""Degenerate decompositions: replicated and single-owner.

The paper's framework treats any ``(proc, local)`` pair of functions as a
decomposition.  Two degenerate members are useful substrates:

* :class:`SingleOwner` — the whole structure on one processor (what a
  scalar or an undistributed array is); the Theorem 1 constant-access
  optimization makes exactly this shape cheap.
* :class:`Replicated` — every processor holds a full copy.  Strictly this
  is not a decomposition in the paper's bijective sense (an element has
  ``pmax`` placements); reads are always local and writes go to every
  copy.  It models broadcast scalars/coefficient tables and is what a
  derived ghost margin degenerates to at full overlap.
"""

from __future__ import annotations

from typing import List

from .base import Decomposition

__all__ = ["SingleOwner", "Replicated"]


class SingleOwner(Decomposition):
    """All elements owned by one processor ``owner``."""

    kind = "singleowner"

    def __init__(self, n: int, pmax: int, owner: int = 0):
        super().__init__(n, pmax)
        if not (0 <= owner < pmax):
            raise ValueError(f"owner {owner} out of range 0:{pmax - 1}")
        self.owner = int(owner)

    def proc(self, i: int) -> int:
        return self.owner

    def local(self, i: int) -> int:
        return i

    def proc_array(self, idx):
        import numpy as np

        idx = np.asarray(idx, dtype=np.int64)
        return np.full(idx.shape, self.owner, dtype=np.int64)

    def local_array(self, idx):
        import numpy as np

        return np.asarray(idx, dtype=np.int64)

    def global_index(self, p: int, l: int) -> int:
        if p != self.owner or not (0 <= l < self.n):
            raise KeyError(f"no global element at (p={p}, l={l})")
        return l

    def owned(self, p: int) -> List[int]:
        return list(range(self.n)) if p == self.owner else []

    def owned_indices(self, p: int) -> slice:
        return slice(0, self.local_size(p))

    local_indices = owned_indices  # local(i) = i

    def local_size(self, p: int) -> int:
        return self.n if p == self.owner else 0

    def cache_key(self):
        return (type(self).__name__, self.n, self.pmax, self.owner)


class Replicated(Decomposition):
    """Every processor holds a full copy.

    ``proc``/``local`` report the canonical copy (processor 0); the
    machine templates special-case ``is_replicated`` so reads never
    communicate and writes update all copies.
    """

    kind = "replicated"
    is_replicated = True

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
        if not (0 <= l < self.n):
            raise KeyError(f"no global element at (p={p}, l={l})")
        return l

    def owned(self, p: int) -> List[int]:
        return list(range(self.n))

    def owned_indices(self, p: int) -> slice:
        return slice(0, self.n)

    local_indices = owned_indices  # local(i) = i

    def local_size(self, p: int) -> int:
        return self.n

    def validate(self) -> None:
        # Replication intentionally breaks the bijection; nothing to check
        # beyond range sanity.
        for i in range(self.n):
            assert 0 <= self.local(i) < self.n
