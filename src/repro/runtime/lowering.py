"""Lowering compiled plans to multi-process node programs.

The fused backend (:mod:`repro.pipeline.kernels`) already proves the
paper's point once per plan: membership index vectors, owning-processor
vectors and gather/scatter keys are all closed-form compile-time
objects.  This module re-targets that precomputation at a *global*
address space: workers index the shared-memory global arrays directly,
so every key here is a global ``f_k(i)`` index vector (tuple of vectors
for grid layouts) rather than a node-local flat offset.

One :class:`MpProgram` per (plan, flavor) — both flavors share the same
worker schedule:

* ``shared``  — degenerate: no sends, every read is a direct global
  gather, all lanes commit as "interior" after the pre-commit barrier
  (which is exactly the §2.9 phase barrier).
* ``dist``    — the §2.10 overlap schedule: per-read send plans (global
  gather keys split per destination node), per-read local/remote lane
  fills, and the `split-interior` lane split with per-lane-set global
  write keys.

Programs are cached on the plan's ``FusedKernels`` object, so they share
the kernel cache's lifetime and ``clear_plan_cache()`` drops them too.
Every program carries a process-unique ``token`` that keys the workers'
installed-plan LRU.

Counter conventions mirror the fused executors exactly (send ``count``
charges iterations even when every lane is local; one message per
(read, peer) pair) — that is what keeps the message-parity asserts of
the equivalence suite valid across backends.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

__all__ = [
    "MpLoweringError",
    "MpNode",
    "MpProgram",
    "MpRead",
    "MpSend",
    "lower_dist",
    "lower_shared",
]

_TOKENS = itertools.count(1)


class MpLoweringError(ValueError):
    """The plan has no multi-process form (reason in ``args[0]``); the
    dispatcher falls back to the in-process fused path."""


@dataclass
class MpSend:
    """One read access's send plan on one node."""

    pos: int                  # read position (message tag)
    name: str
    count: int                # |Reside_p| — charged as iterations
    #: ((destination node, global gather key restricted to it), ...)
    peers: tuple = ()


@dataclass
class MpRead:
    """How one node assembles one read's value vector."""

    pos: int
    name: str
    #: lanes resident locally; ``None`` = every lane is a direct global
    #: load (shared flavor, replicated reads)
    local_pos: object = None
    #: global index key (tuple of int64 vectors, one per array dim)
    local_key: tuple = ()
    #: ((source node, lane positions its message fills), ...)
    sources: tuple = ()


@dataclass
class MpNode:
    """One node's precomputed program: send plan, gather plan, lane
    split, and global scatter keys per lane set."""

    p: int
    n: int
    sends: tuple = ()
    reads: tuple = ()
    interior: np.ndarray = None
    boundary: np.ndarray = None
    idx_interior: tuple = ()
    idx_boundary: tuple = ()
    wkey_interior: tuple = ()
    wkey_boundary: tuple = ()


@dataclass
class MpProgram:
    """Everything the worker pool needs for one plan."""

    token: int
    flavor: str               # "shared" | "dist"
    source: str               # generated kernel source (workers exec it)
    nreads: int
    write_name: str
    array_names: Tuple[str, ...]
    nodes: tuple = ()
    pmax: int = 0
    decomps: Dict[str, object] = field(default_factory=dict)
    #: njit-compilable scalar-loop source (None when the clause has no
    #: native rendering); each worker probes numba on install and
    #: compiles this once, falling back to the NumPy kernel otherwise
    native_source: object = None

    def payload_for(self, rank: int, nprocs: int) -> tuple:
        """The install message for one worker: only its own nodes
        (round-robin ``node % nprocs``) ride the pipe."""
        mine = tuple(nd for nd in self.nodes if nd.p % nprocs == rank)
        return (self.token, self.flavor, self.source, self.nreads,
                self.write_name, mine, self.native_source)


def _i64(a) -> np.ndarray:
    return np.asarray(a, dtype=np.int64)


def _key(acc, idx_vecs) -> tuple:
    """Global array index key of *acc* over membership vectors."""
    from ..machine.vectorize import _array_vecs

    return tuple(_i64(a) for a in _array_vecs(acc, idx_vecs))


def _empty_key(acc) -> tuple:
    return tuple(np.zeros(0, dtype=np.int64) for _ in acc.funcs)


def _native_source_of(ir):
    """The clause's njit-compilable scalar-loop source, or ``None`` when
    it has no native rendering (the worker then keeps the NumPy kernel).
    Rendering is pure codegen — numba availability is probed worker-side
    at install time, not here."""
    from ..pipeline.native import NativeBuildError, render_native_source

    try:
        return render_native_source(ir.clause)
    except NativeBuildError:
        return None


def _cached(ir, flavor: str, build):
    k = ir.kernels
    if k is None:
        raise MpLoweringError(
            "plan carries no fused kernels (lower-kernels fallback)")
    cache = getattr(k, "_mp_programs", None)
    if cache is None:
        cache = {}
        k._mp_programs = cache
    prog = cache.get(flavor)
    if prog is None:
        prog = build(ir, k)
        cache[flavor] = prog
    return prog


# ---------------------------------------------------------------------------
# shared flavor
# ---------------------------------------------------------------------------

def _build_shared(ir, k) -> MpProgram:
    if k.shared is None:
        raise MpLoweringError(k.shared_note or "no shared kernels")
    names = {k.write_name}
    nodes = []
    empty = np.zeros(0, dtype=np.int64)
    for p, nk in enumerate(k.shared):
        # the workers index by lane vectors: materialize the regions'
        blk = nk.blocks[0] if nk.n else None
        reads = tuple(MpRead(pos=r.pos, name=r.name, local_pos=None,
                             local_key=r.mem.index_vectors())
                      for r in nk.reads)
        names.update(r.name for r in reads)
        idx = blk.loop.index_vectors() if blk else (empty,) * len(nk.shape)
        wkey = blk.write.index_vectors() if blk \
            else (empty,) * len(ir.write.funcs)
        nodes.append(MpNode(
            p=p, n=nk.n, sends=(), reads=reads,
            interior=np.arange(nk.n, dtype=np.int64), boundary=empty,
            idx_interior=idx, idx_boundary=(empty,) * len(idx),
            wkey_interior=wkey, wkey_boundary=(empty,) * len(wkey),
        ))
    return MpProgram(
        token=next(_TOKENS), flavor="shared", source=k.source,
        nreads=k.nreads, write_name=k.write_name,
        array_names=tuple(sorted(names)), nodes=tuple(nodes), pmax=ir.pmax,
        native_source=_native_source_of(ir),
    )


def lower_shared(ir) -> MpProgram:
    """The §2.9 template over real processes: the fused shared kernels'
    regions (already global) as lane vectors."""
    return _cached(ir, "shared", _build_shared)


# ---------------------------------------------------------------------------
# distributed flavor
# ---------------------------------------------------------------------------

def _build_dist(ir, k) -> MpProgram:
    from ..machine.vectorize import (
        _interior_mask,
        _member_vecs,
        _proc_linear,
    )

    if ir.write is None:
        raise MpLoweringError("plan carries no substituted write access")
    if ir.write.replicated:
        raise MpLoweringError("replicated write (per-copy broadcast)")
    for acc in ir.reads:
        if not acc.placed:
            raise MpLoweringError(
                f"read {acc.name!r} carries no decomposition")

    names = {ir.write.name} | {acc.name for acc in ir.reads}
    decomps = {ir.write.name: ir.write.dec}
    for acc in ir.reads:
        decomps.setdefault(acc.name, acc.dec)

    nodes = []
    for p in range(ir.pmax):
        # -- send plan: Reside_p per read, destinations computed ----------
        sends = []
        for acc in ir.reads:
            if acc.replicated:
                continue
            r_idx = _member_vecs(ir, acc, p)
            cnt = int(r_idx[0].size)
            if cnt == 0:
                continue
            dest = _proc_linear(ir.write, r_idx)
            key = _key(acc, r_idx)
            peers = tuple(
                (int(q), tuple(a[dest == q] for a in key))
                for q in np.unique(dest) if int(q) != p
            )
            sends.append(MpSend(pos=acc.pos, name=acc.name, count=cnt,
                                peers=peers))

        # -- gather plan: Modify_p, lanes split local/remote --------------
        idx_vecs = _member_vecs(ir, ir.write, p)
        n = int(idx_vecs[0].size)
        reads = []
        for acc in ir.reads:
            if acc.replicated:
                key = _key(acc, idx_vecs) if n else _empty_key(acc)
                reads.append(MpRead(pos=acc.pos, name=acc.name,
                                    local_pos=None, local_key=key))
                continue
            if n == 0:
                reads.append(MpRead(pos=acc.pos, name=acc.name,
                                    local_pos=np.zeros(0, np.int64),
                                    local_key=_empty_key(acc)))
                continue
            src = _proc_linear(acc, idx_vecs)
            local = src == p
            local_pos = _i64(np.nonzero(local)[0])
            key = _key(acc, [v[local] for v in idx_vecs])
            sources = tuple(
                (int(s), _i64(np.nonzero(src == s)[0]))
                for s in np.unique(src[~local])
            )
            reads.append(MpRead(pos=acc.pos, name=acc.name,
                                local_pos=local_pos, local_key=key,
                                sources=sources))

        # -- commit plan: interior/boundary split, global write keys ------
        if n:
            wkey = _key(ir.write, idx_vecs)
            mask = _interior_mask(ir, p, idx_vecs)
            interior = _i64(np.nonzero(mask)[0])
            boundary = _i64(np.nonzero(~mask)[0])
        else:
            wkey = _empty_key(ir.write)
            interior = boundary = np.zeros(0, dtype=np.int64)
        nodes.append(MpNode(
            p=p, n=n, sends=tuple(sends), reads=tuple(reads),
            interior=interior, boundary=boundary,
            idx_interior=tuple(_i64(v)[interior] for v in idx_vecs),
            idx_boundary=tuple(_i64(v)[boundary] for v in idx_vecs),
            wkey_interior=tuple(a[interior] for a in wkey),
            wkey_boundary=tuple(a[boundary] for a in wkey),
        ))
    return MpProgram(
        token=next(_TOKENS), flavor="dist", source=k.source,
        nreads=k.nreads, write_name=ir.write.name,
        array_names=tuple(sorted(names)), nodes=tuple(nodes),
        pmax=ir.pmax, decomps=decomps,
        native_source=_native_source_of(ir),
    )


def lower_dist(ir) -> MpProgram:
    """The §2.10 overlap template over real processes, with every key
    re-derived against the global address space."""
    return _cached(ir, "dist", _build_dist)
