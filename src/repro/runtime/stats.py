"""Per-worker observability for the multi-process runtime.

Each worker reports one :class:`RuntimeStats` record per run — wall-clock
split into kernel and barrier time plus real bytes moved over the
queues — alongside the per-node logical counters that feed the existing
:class:`~repro.machine.stats.MachineStats` machinery (so message/element
parity with the in-process backends stays assertable).

``PHASES`` is the worker run schedule; the pool's shared phase table
stores an index into it per worker so a crash or timeout can be
attributed to the phase (and node) the worker was in.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Tuple

__all__ = ["PHASES", "RuntimeStats", "phase_of"]

#: Worker phases in schedule order.  Low index = further behind — the
#: pool's blame heuristic picks the laggard on a hang.
PHASES = (
    "idle",
    "install",
    "fault-delay",
    "send",
    "gather",
    "barrier",
    "interior",
    "drain",
    "boundary",
    "done",
)

(PH_IDLE, PH_INSTALL, PH_DELAY, PH_SEND, PH_GATHER, PH_BARRIER,
 PH_INTERIOR, PH_DRAIN, PH_BOUNDARY, PH_DONE) = range(len(PHASES))


def phase_of(phase_table, rank: int) -> Tuple[str, int]:
    """Worker *rank*'s ``(phase name, current node)`` as last reported
    in the pool's shared phase table."""
    pi = int(phase_table[2 * rank])
    return (PHASES[pi] if 0 <= pi < len(PHASES) else str(pi),
            int(phase_table[2 * rank + 1]))


@dataclass
class RuntimeStats:
    """One worker's activity during one run (real wall-clock, real bytes)."""

    rank: int
    pid: int
    nodes: Tuple[int, ...] = ()
    kernel_s: float = 0.0      # fused interior + boundary kernel time
    barrier_s: float = 0.0     # pre-commit barrier wait
    send_count: int = 0
    send_bytes: int = 0
    recv_count: int = 0
    recv_bytes: int = 0
    total_s: float = 0.0
    #: the worker ran the njit (or interp-mode) native kernel this run
    native: bool = False

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)

    def describe(self) -> str:
        return (
            f"worker {self.rank} (pid {self.pid}): "
            f"nodes {list(self.nodes)}"
            + ("  [native]" if self.native else "") + "  "
            f"kernel {self.kernel_s * 1e3:.2f} ms  "
            f"barrier {self.barrier_s * 1e3:.2f} ms  "
            f"sent {self.send_count} msg / {self.send_bytes} B  "
            f"recv {self.recv_count} msg / {self.recv_bytes} B  "
            f"total {self.total_s * 1e3:.2f} ms"
        )
