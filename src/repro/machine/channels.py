"""Message channels: non-blocking send, blocking receive (paper §2.10).

The paper's distributed template assumes "a virtual machine that has
non-blocking sends and blocking receives".  :class:`Network` provides
exactly that: per (source, destination) FIFO queues with unbounded
buffering (sends always complete immediately), tagged messages, and a
``try_recv`` that the scheduler uses to decide whether a blocked node can
resume.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Hashable, Optional, Tuple

__all__ = ["Message", "Network", "LatencyModel"]

Tag = Hashable


@dataclass(frozen=True)
class LatencyModel:
    """Virtual-time cost model for messages and compute.

    A message of *n* elements sent at virtual time *t* is considered
    delivered at ``t + alpha + beta*n``; each locally computed element
    costs ``t_element``.  The model is pure *accounting* — it never
    changes what the deterministic scheduler does, only the per-node
    virtual clocks (:attr:`~repro.machine.stats.NodeStats.vtime`), so
    the overlap schedule's latency hiding is measurable on the simulator
    without giving up reproducible runs.  Times are arbitrary units.
    """

    alpha: float = 0.0      # fixed per-message latency
    beta: float = 0.0       # per-element transfer time
    t_element: float = 0.0  # per-element compute time

    def message_time(self, nelems: int) -> float:
        return self.alpha + self.beta * nelems


@dataclass(frozen=True)
class Message:
    src: int
    dst: int
    tag: Tag
    payload: Any
    deliver_time: float = 0.0


def _payload_elements(payload: Any) -> int:
    size = getattr(payload, "size", None)
    return int(size) if size is not None else 1


class Network:
    """FIFO channels between every ordered pair of nodes."""

    def __init__(self, pmax: int, model: Optional[LatencyModel] = None):
        self.pmax = pmax
        self.model = model
        self._queues: Dict[Tuple[int, int], Deque[Message]] = {}

    def _q(self, src: int, dst: int) -> Deque[Message]:
        key = (src, dst)
        q = self._queues.get(key)
        if q is None:
            q = deque()
            self._queues[key] = q
        return q

    def _check(self, p: int, role: str) -> None:
        if not (0 <= p < self.pmax):
            raise IndexError(f"{role} {p} out of range 0:{self.pmax - 1}")

    def send(self, src: int, dst: int, tag: Tag, payload: Any,
             now: float = 0.0) -> None:
        """Non-blocking send: enqueue and return immediately.

        *now* is the sender's virtual time; with a latency model the
        message is stamped with its modeled delivery time, which the
        scheduler folds into the receiver's clock on receipt."""
        self._check(src, "source")
        self._check(dst, "destination")
        deliver = now
        if self.model is not None:
            deliver = now + self.model.message_time(_payload_elements(payload))
        self._q(src, dst).append(Message(src, dst, tag, payload, deliver))

    def try_recv(self, dst: int, src: int, tag: Tag) -> Optional[Message]:
        """Receive the matching message if already delivered, else None.

        Matching is FIFO *per tag* within the (src, dst) channel: the first
        queued message with the requested tag is taken, so differently
        tagged traffic cannot block a receive it does not match.
        """
        q = self._q(src, dst)
        for k, msg in enumerate(q):
            if msg.tag == tag:
                del q[k]
                return msg
        return None

    def pending(self) -> int:
        """Messages sent but not yet received."""
        return sum(len(q) for q in self._queues.values())

    def pending_messages(self) -> list:
        """Every undelivered message as ``(src, dst, tag)``, in channel
        order — payloads are omitted (they may be large arrays)."""
        out = []
        for key in sorted(self._queues):
            out.extend((m.src, m.dst, m.tag) for m in self._queues[key])
        return out

    def pending_for(self, dst: int) -> int:
        return sum(len(q) for (s, d), q in self._queues.items() if d == dst)

    def drain_check(self) -> None:
        """Raise if undelivered messages remain (run-end sanity check)."""
        left = self.pending()
        if left:
            detail = {
                k: [m.tag for m in q] for k, q in self._queues.items() if q
            }
            raise AssertionError(f"{left} undelivered message(s): {detail}")
