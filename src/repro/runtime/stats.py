"""Per-worker observability for the multi-process runtime.

Each worker reports one :class:`RuntimeStats` record per run — wall-clock
split into kernel and barrier time, real bytes moved over the queues and
the minor page faults the run took — alongside the per-node logical counters that feed the existing
:class:`~repro.machine.stats.MachineStats` machinery (so message/element
parity with the in-process backends stays assertable).

``PHASES`` is the worker run schedule; the pool's shared phase table
stores per worker an index into it, the current node and the clause
sequence number, so a crash or timeout can be attributed to the phase
(and node) the worker was in, and blame goes to the worker furthest
behind by ``(sequence, phase)``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Tuple

__all__ = ["PHASES", "RuntimeStats", "phase_of"]

#: Worker phases in :func:`~repro.runtime.worker.run_sequence` order.
#: Low index = further behind within one clause — the pool's blame
#: heuristic picks the laggard on a hang.  ``barrier`` is the pre-commit
#: wait, ``end-barrier`` the end-of-clause one.
PHASES = (
    "idle",
    "install",
    "fault-delay",
    "gather",
    "send",
    "barrier",
    "interior",
    "drain",
    "boundary",
    "end-barrier",
    "done",
)

(PH_IDLE, PH_INSTALL, PH_DELAY, PH_GATHER, PH_SEND, PH_BARRIER,
 PH_INTERIOR, PH_DRAIN, PH_BOUNDARY, PH_END_BARRIER,
 PH_DONE) = range(len(PHASES))

#: phase-table slots per worker: phase index, node, clause sequence
SLOTS = 3


def phase_of(phase_table, rank: int) -> Tuple[str, int, int]:
    """Worker *rank*'s ``(phase name, current node, clause sequence)``
    as last reported in the pool's shared phase table (-1: none)."""
    pi, node, seq = phase_table[SLOTS * rank:SLOTS * rank + SLOTS]
    return (PHASES[pi] if 0 <= pi < len(PHASES) else str(pi),
            int(node), int(seq))


@dataclass
class RuntimeStats:
    """One worker's activity during one run (real wall-clock, real bytes)."""

    rank: int
    pid: int
    nodes: Tuple[int, ...] = ()
    kernel_s: float = 0.0      # fused interior + boundary kernel time
    barrier_s: float = 0.0     # every barrier wait (phase + end-of-clause)
    barrier_waits: int = 0     # physical barrier waits
    send_count: int = 0
    send_bytes: int = 0
    recv_count: int = 0
    recv_bytes: int = 0
    total_s: float = 0.0
    minflt: int = 0            # minor page faults (mp workers: getrusage)

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)

    def describe(self) -> str:
        return (
            f"worker {self.rank} (pid {self.pid}): "
            f"nodes {list(self.nodes)}  "
            f"kernel {self.kernel_s * 1e3:.2f} ms  "
            f"barrier {self.barrier_s * 1e3:.2f} ms / "
            f"{self.barrier_waits} wait(s)  "
            f"sent {self.send_count} msg / {self.send_bytes} B  "
            f"recv {self.recv_count} msg / {self.recv_bytes} B  "
            f"total {self.total_s * 1e3:.2f} ms  "
            f"minflt {self.minflt}"
        )
