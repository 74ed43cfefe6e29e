"""Multi-dimensional placement helpers for the distributed machine.

Grid-decomposed arrays live as dense local nd-arrays per node (shape
``grid.local_shape(p)``); 1-D decompositions fall back to the 1-D
placement of :mod:`repro.machine.memory`.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..decomp.multidim import GridDecomposition
from .memory import LocalMemory

__all__ = ["scatter_global_nd", "gather_global_nd"]


def _product(parts, shape):
    """NumPy index selecting the Cartesian product of per-axis index sets:
    basic slicing when every axis is an ``l:u:s`` triplet, an open mesh
    (``np.ix_``) otherwise."""
    if all(isinstance(s, slice) for s in parts):
        return tuple(parts)
    return np.ix_(*(
        np.arange(*s.indices(n)) if isinstance(s, slice) else s
        for s, n in zip(parts, shape)
    ))


def scatter_global_nd(
    name: str,
    global_array: np.ndarray,
    grid: GridDecomposition,
    memories: List[LocalMemory],
) -> None:
    """Distribute an nd-array onto node memories under a grid
    decomposition: one array assignment per node, each node memory a
    fresh C-contiguous copy."""
    if tuple(global_array.shape) != grid.shape:
        raise ValueError(
            f"array {name!r} shape {global_array.shape} != decomposition "
            f"shape {grid.shape}"
        )
    if len(memories) != grid.pmax:
        raise ValueError(
            f"{len(memories)} node memories for decomposition pmax={grid.pmax}"
        )
    for p, mem in enumerate(memories):
        shape = grid.local_shape(p)
        local = np.zeros(shape, dtype=global_array.dtype)
        local[_product(grid.local_indices(p), shape)] = \
            global_array[_product(grid.owned_indices(p), grid.shape)]
        mem.arrays[name] = local


def gather_global_nd(
    name: str,
    grid: GridDecomposition,
    memories: List[LocalMemory],
    dtype=np.float64,
) -> np.ndarray:
    """Reassemble the global nd-array from the node memories."""
    out = np.zeros(grid.shape, dtype=dtype)
    for p, mem in enumerate(memories):
        local = mem[name]
        out[_product(grid.owned_indices(p), grid.shape)] = \
            local[_product(grid.local_indices(p), local.shape)]
    return out
