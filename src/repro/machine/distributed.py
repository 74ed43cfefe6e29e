"""The simulated distributed-memory machine (paper Section 2.10).

Bundles per-node local memories, the message network, the scheduler and
statistics into one object; provides a :class:`NodeContext` handle that
generated node programs use for their sends/receives/updates.

This is the repo's substitute for a physical message-passing machine (see
DESIGN.md): it exposes exactly the surface the paper's generated programs
assume — non-blocking ``send``, blocking ``recv`` (by yielding a
:class:`~repro.machine.scheduler.Recv`), local memories addressed with the
decomposition's ``local`` function — and observes every functional
property the paper's claims are about.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional, Union

import numpy as np

from ..decomp.base import Decomposition
from ..decomp.multidim import GridDecomposition
from .channels import LatencyModel, Network
from .memory import LocalMemory, gather_global, scatter_global
from .scheduler import Barrier, NodeGen, Recv, run_spmd
from .stats import MachineStats

__all__ = ["NodeContext", "DistributedMachine"]

AnyDec = Union[Decomposition, GridDecomposition]


class NodeContext:
    """One node's view of the machine, passed to node programs."""

    def __init__(self, p: int, machine: "DistributedMachine"):
        self.p = p
        self.machine = machine
        self.mem = machine.memories[p]
        self.stats = machine.stats[p]

    # -- communication -----------------------------------------------------

    def send(self, dst: int, tag: Hashable, payload: Any) -> None:
        """Non-blocking send (paper's ``send(proc, data)``)."""
        self.machine.network.send(self.p, dst, tag, payload,
                                  now=self.stats.vtime)
        self.stats.sends += 1
        n = payload.size if isinstance(payload, np.ndarray) else 1
        self.stats.elements_sent += n

    def recv(self, src: int, tag: Hashable) -> Recv:
        """Blocking receive *request* — ``value = yield ctx.recv(src, tag)``."""
        return Recv(src, tag)

    def barrier(self) -> Barrier:
        return Barrier()

    def note_received(self, payload: Any) -> Any:
        """Book-keeping hook generated programs call on each received value."""
        n = payload.size if isinstance(payload, np.ndarray) else 1
        self.stats.elements_received += n
        return payload

    # -- local data ----------------------------------------------------------

    def update(self, name: str, slot: int, value) -> None:
        self.mem[name][slot] = value
        self.stats.local_updates += 1


class DistributedMachine:
    """``pmax`` nodes, local memories, a network, and a scheduler."""

    def __init__(self, pmax: int, model: Optional[LatencyModel] = None):
        if pmax < 1:
            raise ValueError("pmax must be >= 1")
        self.pmax = pmax
        self.model = model
        self.memories: List[LocalMemory] = [LocalMemory(p) for p in range(pmax)]
        self.network = Network(pmax, model=model)
        self.stats = MachineStats.for_nodes(pmax)
        self.decomps: Dict[str, AnyDec] = {}

    # -- data placement -----------------------------------------------------

    def place(self, name: str, global_array: np.ndarray, d: AnyDec,
              margins: Optional[Dict[int, tuple]] = None) -> None:
        """Distribute a global array onto the nodes under decomposition *d*
        (1-D or grid); *margins* (node -> per-axis ``(lo, hi)``) places a
        node's core inside a ghost frame of that width
        (:func:`~repro.machine.memory.scatter_global`)."""
        if d.pmax != self.pmax:
            raise ValueError(
                f"decomposition pmax={d.pmax} != machine pmax={self.pmax}"
            )
        scatter_global(name, np.asarray(global_array, dtype=np.float64), d,
                       self.memories, margins)
        self.decomps[name] = d

    def collect(self, name: str) -> np.ndarray:
        """Gather the global view of a placed array."""
        d = self.decomps.get(name)
        if d is None:
            raise KeyError(
                f"array {name!r} was never placed on this machine "
                f"(placed: {sorted(self.decomps)})"
            )
        return gather_global(name, d, self.memories)

    def decomposition(self, name: str) -> AnyDec:
        return self.decomps[name]

    # -- execution -----------------------------------------------------------

    def run(
        self,
        make_program: Callable[[NodeContext], NodeGen],
        check_drained: bool = True,
        trace: Optional[list] = None,
    ) -> None:
        """Instantiate ``make_program`` per node and run to completion.

        ``check_drained`` asserts no messages were left undelivered — a
        generated-code correctness check (every send must be matched).
        Pass a list as *trace* to collect scheduler
        :class:`~repro.machine.scheduler.TraceEvent` records.
        """
        programs = [make_program(NodeContext(p, self))
                    for p in range(self.pmax)]
        with np.errstate(all="ignore"):  # the operator table's results
            run_spmd(programs, self.network, self.stats, trace=trace)
        if check_drained:
            self.network.drain_check()
