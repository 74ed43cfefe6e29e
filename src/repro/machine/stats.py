"""Instrumentation for the simulated machines.

The paper's optimization story is about *counts* — membership tests,
iterations, messages — not wall-clock on 1991 hardware, so every node
records its counters and the benchmarks report aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["NodeStats", "MachineStats"]


@dataclass
class NodeStats:
    """Per-node activity counters."""

    sends: int = 0
    recvs: int = 0
    elements_sent: int = 0
    elements_received: int = 0
    local_updates: int = 0
    membership_tests: int = 0
    iterations: int = 0
    barriers: int = 0
    steps: int = 0  # scheduler resumptions
    #: virtual clock under the optional latency model (stays 0.0 without it)
    vtime: float = 0.0


@dataclass
class MachineStats:
    """Counters for all nodes of one machine run."""

    nodes: List[NodeStats] = field(default_factory=list)

    @classmethod
    def for_nodes(cls, pmax: int) -> "MachineStats":
        return cls([NodeStats() for _ in range(pmax)])

    def __getitem__(self, p: int) -> NodeStats:
        return self.nodes[p]

    # -- aggregates -----------------------------------------------------------

    def total(self, attr: str) -> int:
        return sum(getattr(n, attr) for n in self.nodes)

    def total_messages(self) -> int:
        return self.total("sends")

    def total_elements_moved(self) -> int:
        return self.total("elements_sent")

    def total_updates(self) -> int:
        return self.total("local_updates")

    def total_tests(self) -> int:
        return self.total("membership_tests")

    def update_counts(self) -> List[int]:
        return [n.local_updates for n in self.nodes]

    def makespan(self) -> float:
        """Modeled completion time: the laggard node's virtual clock
        (0.0 when no latency model was attached to the run)."""
        return max((n.vtime for n in self.nodes), default=0.0)

    def load_imbalance(self) -> float:
        """max/mean of per-node updates (1.0 = perfectly balanced)."""
        counts = self.update_counts()
        active = [c for c in counts]
        mean = sum(active) / len(active) if active else 0.0
        if mean == 0:
            return 0.0
        return max(active) / mean

    def summary(self) -> Dict[str, int]:
        return {
            "messages": self.total_messages(),
            "elements_moved": self.total_elements_moved(),
            "updates": self.total_updates(),
            "tests": self.total_tests(),
            "iterations": self.total("iterations"),
        }
