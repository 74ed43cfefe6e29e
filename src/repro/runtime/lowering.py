"""Compiled plans as real-process programs: the install envelope.

There is nothing left to lower.  The `lower-kernels` pass already holds
every node's lane plan as regions (:mod:`repro.pipeline.kernels`), and
the mp workers and MPI ranks run those very node kernels — the same
rows, entry and key type as the in-process tiers.  An :class:`MpProgram`
only wraps one flavor's node list with what a worker needs to install
it: a process-unique ``token`` (keys the workers' installed-plan LRU),
the kernel sources, the array names and the decompositions.

* ``shared`` — ``ir.kernels.shared``: no sends, every read resident,
  one block per node committed after the pre-commit barrier (which is
  exactly the §2.9 phase barrier).
* ``dist``   — ``ir.kernels.gdist``: the §2.10 overlap schedule (sends,
  fills, interior block, boundary strips) over the *identity* address
  map, because real processes index the global arrays in shared or
  rank-private memory.  Same builder as the simulator's node-local
  ``dist`` flavor; built on first demand.

Envelopes are cached on the plan's ``FusedKernels`` (a declared field the
kernel cache's byte budget counts), so they share its lifetime and
``clear_plan_cache()`` drops them too.  Counters follow from the shared
node type: send ``count`` charges iterations even when every lane is
local, one message per (read, peer) pair — message parity across
backends holds by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from ..pipeline.kernels import _FLAVORS, flavor_nodes, recount

__all__ = [
    "MpLoweringError",
    "MpProgram",
    "lower_dist",
    "lower_shared",
]

_TOKENS = itertools.count(1)


class MpLoweringError(ValueError):
    """The plan has no multi-process form (reason in ``args[0]``); the
    dispatcher falls back to the in-process fused path."""


@dataclass
class MpProgram:
    """Everything the worker pool needs to install one plan."""

    token: int
    flavor: str               # schedule shape: "shared" | "dist"
    source: str               # generated kernel source (workers exec it)
    nreads: int
    write_name: str
    array_names: Tuple[str, ...]
    #: the plan's own node kernels (``ir.kernels.shared`` / ``.gdist``)
    nodes: Sequence = ()
    decomps: Dict[str, object] = field(default_factory=dict)
    #: njit-compilable scalar-loop source (None when the clause has no
    #: native rendering); each worker probes numba on install and
    #: compiles this once, falling back to the NumPy kernel otherwise
    native_source: Optional[str] = None
    #: the static schedule verdict of the last sequence this program
    #: was checked in (:func:`repro.analysis.check_schedule`)
    sched_cert: Optional[object] = None

    @property
    def pmax(self) -> int:
        return len(self.nodes)

    def payload_for(self, rank: int, nprocs: int) -> tuple:
        """The install message for one worker: only its own nodes
        (round-robin ``node % nprocs``) ride the pipe."""
        mine = tuple(nd for nd in self.nodes if nd.p % nprocs == rank)
        return (self.token, self.flavor, self.source, self.nreads,
                self.write_name, mine, self.native_source)


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


def _envelope(ir, nodes_of: str) -> MpProgram:
    """The (cached) program around ``ir.kernels.<nodes_of>``."""
    k, flavor = ir.kernels, "dist" if _FLAVORS[nodes_of][1] else "shared"
    if k is None:
        raise MpLoweringError(
            "plan carries no fused kernels (lower-kernels fallback)")
    prog = k.mp_programs.get(nodes_of)
    if prog is None:
        nodes = flavor_nodes(ir, nodes_of)
        if nodes is None:
            raise MpLoweringError(getattr(k, nodes_of + "_note"))
        prog = k.mp_programs[nodes_of] = MpProgram(
            token=next(_TOKENS), flavor=flavor, source=k.source,
            nreads=k.nreads, write_name=k.write_name,
            array_names=tuple(sorted(
                {k.write_name} | {acc.name for acc in ir.reads})),
            nodes=nodes,
            decomps={} if flavor == "shared" else {
                acc.name: acc.dec for acc in reversed(ir.accesses())},
            native_source=_native_source_of(ir),
        )
        recount(ir, prog.native_source)
    return prog


def lower_shared(ir) -> MpProgram:
    """The §2.9 template over real processes."""
    return _envelope(ir, "shared")


def lower_dist(ir) -> MpProgram:
    """The §2.10 overlap template over real processes: the distributed
    schedule against the global address space."""
    return _envelope(ir, "gdist")
