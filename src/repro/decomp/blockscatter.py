"""Block-scatter decomposition ``BS(b)`` (paper Section 3.2, Fig. 2a).

The data is split into blocks of ``b`` consecutive elements; blocks are
dealt round-robin over the processors:

    ``proc(i)  = (i div b) mod pmax``
    ``local(i) = b.(i div (b.pmax)) + i mod b``

The paper's ``local`` is written ``b.(i div m.pmax) + i mod b`` with the
block size appearing as ``m`` — the course (round) index times the block
size plus the offset within the block, which is what we implement.

Block (Fig. 2b) and scatter (Fig. 2c) are the specializations
``b = ceil(n/pmax)`` and ``b = 1``.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core.ifunc import ceil_div
from .base import Decomposition

__all__ = ["BlockScatter"]


class BlockScatter(Decomposition):
    """``BS(b)``: blocks of *b* elements scattered round-robin."""

    kind = "blockscatter"

    def __init__(self, n: int, pmax: int, b: int):
        super().__init__(n, pmax)
        if b < 1:
            raise ValueError("block size b must be >= 1")
        self.b = int(b)

    def proc(self, i: int) -> int:
        return (i // self.b) % self.pmax

    def local(self, i: int) -> int:
        course = i // (self.b * self.pmax)
        return self.b * course + i % self.b

    # The same formulas broadcast over ndarrays; Block and Scatter inherit
    # these (their proc/local are the b = ceil(n/pmax) and b = 1 cases).
    def proc_array(self, idx):
        idx = np.asarray(idx, dtype=np.int64)
        return (idx // self.b) % self.pmax

    def local_array(self, idx):
        idx = np.asarray(idx, dtype=np.int64)
        return self.b * (idx // (self.b * self.pmax)) + idx % self.b

    def global_index(self, p: int, l: int) -> int:
        course, off = divmod(l, self.b)
        i = (course * self.pmax + p) * self.b + off
        if not (0 <= i < self.n) or self.local(i) != l or self.proc(i) != p:
            raise KeyError(f"no global element at (p={p}, l={l})")
        return i

    def owned(self, p: int) -> List[int]:
        out: List[int] = []
        stride = self.b * self.pmax
        start = p * self.b
        for base in range(start, self.n, stride):
            out.extend(range(base, min(base + self.b, self.n)))
        return out

    # The owned set as the paper's generation function: course starts
    # ``p.b + k.b.pmax`` plus the in-block offsets ``0:b-1``, clipped to
    # ``n``.  One course (every Block) and ``b = 1`` (Scatter) are single
    # ``l:u:s`` triplets.
    def owned_indices(self, p: int):
        b, n = self.b, self.n
        start, stride = p * b, b * self.pmax
        if start + stride >= n:
            return slice(min(start, n), min(start + b, n))
        if b == 1:
            return slice(start, n, stride)
        idx = (np.arange(start, n, stride, dtype=np.int64)[:, None]
               + np.arange(b, dtype=np.int64)).ravel()
        return idx[: self.local_size(p)]

    def local_indices(self, p: int):
        # ``local`` numbers a processor's elements densely in global order
        return slice(0, self.local_size(p))

    def local_size(self, p: int) -> int:
        full, rest = divmod(self.n, self.b * self.pmax)
        return full * self.b + min(max(rest - p * self.b, 0), self.b)

    def courses(self) -> int:
        """Number of rounds of block dealing (the ``k`` range extent)."""
        return ceil_div(self.n, self.b * self.pmax)

    def cache_key(self):
        return (type(self).__name__, self.n, self.pmax, self.b)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BlockScatter(n={self.n}, pmax={self.pmax}, b={self.b})"
