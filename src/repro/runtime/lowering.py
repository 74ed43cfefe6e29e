"""Compiled plans as real-process programs: the install envelope.

There is nothing left to lower.  The mp workers and MPI ranks run the
node kernels :func:`~repro.pipeline.kernels.flavor_nodes` builds — every
node's lane plan as regions, the same rows, entry and key type as the
in-process tiers.  An :class:`MpProgram` only wraps one flavor's node
list with what a worker needs to install it: a process-unique ``token``
(keys the workers' installed-plan LRU), the kernel sources, the array
names and the decompositions.

* ``shared`` — the ``union`` flavor for the run's process count: no
  sends, every read resident, one block per process over the nodes it
  owns.  Its pre-commit barrier is the §2.9 phase barrier, and it is the
  flavor whose pre-commit wait :func:`repro.analysis.phase_barriers`
  can prove unneeded: with no node reading another's writes of the
  target, a time loop waits once per clause, at the end-of-clause
  barrier.
* ``dist``   — the ``gdist`` flavor: the §2.10 overlap schedule (sends,
  fills, interior block, boundary strips) over the *identity* address
  map, because real processes index the global arrays in shared or
  rank-private memory.  Same builder as the simulator's node-local
  ``dist`` flavor.

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

from ..pipeline.kernels import _FLAVORS, flavor_nodes, owner

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
    pmax: int = 0             # the plan's node count
    #: the plan's own node kernels (its ``union`` / ``gdist`` flavor)
    nodes: Sequence = ()
    decomps: Dict[str, object] = field(default_factory=dict)
    #: the plan's footprint (:meth:`~repro.pipeline.ir.PlanIR.footprint`):
    #: what the schedule check's barrier placement reads
    footprint: Optional[object] = None
    #: the static schedule verdict of the last sequence this program
    #: was checked in (:func:`repro.analysis.check_schedule`)
    sched_cert: Optional[object] = None

    def payload_for(self, rank: int, nprocs: int) -> tuple:
        """The install message for one worker: only the kernels of its
        own nodes (:func:`~repro.pipeline.kernels.owner`) ride the
        pipe."""
        mine = tuple(nd for nd in self.nodes
                     if owner(nd.p, self.pmax, nprocs) == rank)
        return (self.token, self.flavor, self.source, self.nreads,
                self.write_name, self.pmax, mine)


def _envelope(ir, nodes_of: str, strict: bool = False,
              procs: Optional[int] = None) -> MpProgram:
    """The (cached) program around the plan's *nodes_of* flavor — the
    ``union`` flavor's for *procs* processes."""
    k, flavor = ir.kernels, "dist" if _FLAVORS[nodes_of][1] else "shared"
    if k is None:
        raise MpLoweringError(
            "plan carries no fused kernels (lower-kernels fallback)")
    key = nodes_of if procs is None else (nodes_of, procs)
    with k.lock:  # one envelope (one token) per flavor and process count
        prog = k.mp_programs.get(key)
        if prog is None:
            nodes = flavor_nodes(ir, nodes_of, strict, MpLoweringError,
                                 procs or 1)
            prog = k.mp_programs[key] = MpProgram(
                token=next(_TOKENS), flavor=flavor, source=k.source,
                nreads=k.nreads, write_name=k.write_name,
                array_names=tuple(sorted(
                    {k.write_name} | {acc.name for acc in ir.reads})),
                pmax=ir.pmax, nodes=nodes, footprint=ir.footprint(),
                decomps={} if flavor == "shared" else {
                    acc.name: acc.dec for acc in reversed(ir.accesses())},
            )
    return prog


def lower_shared(ir, strict: bool = False, procs: int = 1) -> MpProgram:
    """The §2.9 template over *procs* real processes: one block per
    process over the nodes it owns."""
    return _envelope(ir, "union", strict, procs)


def lower_dist(ir, strict: bool = False) -> MpProgram:
    """The §2.10 overlap template over real processes: the distributed
    schedule against the global address space."""
    return _envelope(ir, "gdist", strict)
