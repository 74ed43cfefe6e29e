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
from .ndmemory import gather_global_nd, scatter_global_nd
from .scheduler import Barrier, Irecv, NodeGen, Probe, Recv, RecvFuture, \
    Yield, run_spmd
from .stats import MachineStats

__all__ = ["NodeContext", "DistributedMachine"]

AnyDec = Union[Decomposition, GridDecomposition]


def _movers(d: AnyDec):
    """``(scatter, gather)`` for *d* — the one place the machine tells a
    grid from a 1-D decomposition."""
    if isinstance(d, GridDecomposition):
        return scatter_global_nd, gather_global_nd
    return scatter_global, gather_global


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

    def irecv(self, src: int, tag: Hashable) -> Irecv:
        """Non-blocking receive *request* — ``handle = yield ctx.irecv(...)``
        resumes immediately with a :class:`RecvFuture`."""
        return Irecv(src, tag)

    def probe(self, handles) -> Probe:
        """Wait-any *request* over posted handles —
        ``done = yield ctx.probe(handles)``."""
        return Probe(handles)

    def barrier(self) -> Barrier:
        return Barrier()

    def charge_elements(self, n: int) -> None:
        """Advance this node's virtual clock by *n* computed elements
        (no-op without a latency model)."""
        model = self.machine.model
        if model is not None and n:
            self.stats.vtime += n * model.t_element

    def note_received(self, payload: Any) -> Any:
        """Book-keeping hook generated programs call on each received value."""
        n = payload.size if isinstance(payload, np.ndarray) else 1
        self.stats.elements_received += n
        return payload

    # -- local data ----------------------------------------------------------

    def array(self, name: str) -> np.ndarray:
        return self.mem[name]

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

    def place(self, name: str, global_array: np.ndarray, d: AnyDec) -> None:
        """Distribute a global array onto the nodes under decomposition *d*
        (1-D or grid)."""
        if d.pmax != self.pmax:
            raise ValueError(
                f"decomposition pmax={d.pmax} != machine pmax={self.pmax}"
            )
        scatter, _ = _movers(d)
        scatter(name, np.asarray(global_array, dtype=np.float64), d,
                self.memories)
        self.decomps[name] = d

    def collect(self, name: str) -> np.ndarray:
        """Gather the global view of a placed array."""
        d = self.decomps.get(name)
        if d is None:
            raise KeyError(
                f"array {name!r} was never placed on this machine "
                f"(placed: {sorted(self.decomps)})"
            )
        _, gather = _movers(d)
        return gather(name, d, self.memories)

    def decomposition(self, name: str) -> AnyDec:
        return self.decomps[name]

    # -- execution -----------------------------------------------------------

    def contexts(self) -> List[NodeContext]:
        return [NodeContext(p, self) for p in range(self.pmax)]

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
        programs = [make_program(ctx) for ctx in self.contexts()]
        run_spmd(programs, self.network, self.stats, trace=trace)
        if check_drained:
            self.network.drain_check()
