"""Cooperative scheduler for SPMD node programs.

A *node program* is a Python generator: it runs until it needs the
machine — a blocking receive or a barrier — and yields a request object.
The scheduler resumes it when the request can be satisfied:

* ``Recv(src, tag)``   — resumed with the message payload once delivered;
* ``Irecv(src, tag)``  — non-blocking: resumed *immediately* with a
  :class:`RecvFuture` handle (the receive is only posted);
* ``Probe(handles)``   — resumed with the first posted handle whose
  message is available, fulfilled (``handle.payload`` set);
* ``Barrier()``        — resumed when all *live* nodes reach the barrier
  (nodes that already terminated no longer participate);
* ``Yield()``          — resumed on the next round (cooperative pause).

Scheduling is deterministic round-robin, so simulated runs are exactly
reproducible.  If every live node is blocked and no request can be
satisfied the scheduler raises :class:`DeadlockError` with a per-node
diagnosis — the simulator's replacement for a hung MPI job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Hashable, List, Optional, Tuple

from .channels import Network
from .stats import MachineStats

__all__ = ["Recv", "Irecv", "Probe", "RecvFuture", "Barrier", "Yield",
           "DeadlockError", "TraceEvent", "run_spmd"]


@dataclass(frozen=True)
class TraceEvent:
    """One scheduler observation: node *p* did *kind* in logical *round*.

    Kinds: ``"step"`` (resumed and ran to its next request), ``"recv"``
    (a blocking receive was satisfied), ``"barrier"`` (released from a
    barrier), ``"retire"`` (program finished).
    """

    round: int
    p: int
    kind: str


@dataclass(frozen=True)
class Recv:
    """Blocking receive request: wait for (src, tag)."""

    src: int
    tag: Hashable


@dataclass(frozen=True)
class Irecv:
    """Non-blocking receive request: post and continue.

    The scheduler resumes the node immediately with a fresh
    :class:`RecvFuture`; the message is consumed later by a
    :class:`Probe` naming that handle."""

    src: int
    tag: Hashable


@dataclass(eq=False)
class RecvFuture:
    """Handle for a posted :class:`Irecv` (identity, not value, equality)."""

    src: int
    tag: Hashable
    payload: Any = None
    done: bool = False


@dataclass(frozen=True)
class Probe:
    """Wait for any of the posted receives to complete.

    Resumed with the first handle (in list order) whose message is
    available; its ``payload``/``done`` fields are filled in."""

    handles: Tuple[RecvFuture, ...]

    def __init__(self, handles):
        object.__setattr__(self, "handles", tuple(handles))


@dataclass(frozen=True)
class Barrier:
    """Global barrier request."""


@dataclass(frozen=True)
class Yield:
    """Voluntary reschedule (lets other nodes progress)."""


NodeGen = Generator[Any, Any, None]


class DeadlockError(RuntimeError):
    """All live nodes blocked with nothing deliverable.

    Carries the structured diagnosis alongside the message:

    * ``blocked`` — ``{p: ("recv", src, tag)}`` for nodes stuck in a
      receive, ``{p: ("probe", ((src, tag), ..))}`` for nodes probing
      posted non-blocking receives, ``{p: ("barrier",)}`` for nodes
      parked at a barrier;
    * ``undelivered`` — in-flight ``(src, dst, tag)`` triples that no
      pending receive matches.
    """

    def __init__(self, message: str, blocked: Optional[Dict[int, tuple]] = None,
                 undelivered: Optional[List[tuple]] = None):
        super().__init__(message)
        self.blocked: Dict[int, tuple] = blocked or {}
        self.undelivered: List[tuple] = undelivered or []


def run_spmd(
    programs: List[NodeGen],
    network: Network,
    stats: Optional[MachineStats] = None,
    max_rounds: int = 10_000_000,
    trace: Optional[List["TraceEvent"]] = None,
) -> None:
    """Run one generator per node to completion.

    ``programs[p]`` is node *p*'s program.  The network must be the one the
    programs' sends go through (they capture it via closure/context).
    With *trace* (a list), a :class:`TraceEvent` is appended per
    scheduler observation — the raw material for pipeline/overlap
    analysis (:mod:`repro.machine.trace`).
    """
    live: Dict[int, NodeGen] = dict(enumerate(programs))
    waiting: Dict[int, Any] = {}  # p -> pending request
    at_barrier: set[int] = set()

    def emit(round_, p, kind):
        if trace is not None:
            trace.append(TraceEvent(round_, p, kind))

    def advance(p, value):
        """Resume node *p* with *value*; record its next request or
        retire it."""
        try:
            waiting[p] = live[p].send(value)
        except StopIteration:
            del live[p]
            waiting.pop(p, None)
            return
        if stats is not None:
            stats[p].steps += 1

    def resume(round_, p, kind, value=None):
        waiting.pop(p, None)
        emit(round_, p, kind)
        advance(p, value)
        if p not in live:
            emit(round_, p, "retire")

    # Start every program to its first request.
    for p in list(live):
        advance(p, None)
        emit(0, p, "step" if p in live else "retire")

    rounds = 0
    while live:
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError("scheduler exceeded max_rounds; runaway program?")
        progressed = False

        # Barrier release: every live node is at the barrier.
        if at_barrier and at_barrier == set(live):
            if stats is not None:
                # a barrier synchronizes the virtual clocks to the laggard
                vmax = max((stats[p].vtime for p in at_barrier), default=0.0)
                for p in at_barrier:
                    stats[p].barriers += 1
                    stats[p].vtime = vmax
            at_barrier.clear()
            for p in sorted(live):
                resume(rounds, p, "barrier")
            continue

        for p in sorted(live):
            req = waiting.get(p)
            if isinstance(req, Recv):
                msg = network.try_recv(p, req.src, req.tag)
                if msg is not None:
                    if stats is not None:
                        stats[p].recvs += 1
                        stats[p].vtime = max(stats[p].vtime, msg.deliver_time)
                    resume(rounds, p, "recv", msg.payload)
                    progressed = True
            elif isinstance(req, Irecv):
                resume(rounds, p, "step", RecvFuture(req.src, req.tag))
                progressed = True
            elif isinstance(req, Probe):
                hit = None
                for h in req.handles:
                    if h.done:
                        hit = h
                        break
                    msg = network.try_recv(p, h.src, h.tag)
                    if msg is not None:
                        h.payload = msg.payload
                        h.done = True
                        if stats is not None:
                            stats[p].recvs += 1
                            stats[p].vtime = max(stats[p].vtime,
                                                 msg.deliver_time)
                        hit = h
                        break
                if hit is not None:
                    resume(rounds, p, "recv", hit)
                    progressed = True
            elif isinstance(req, (Yield, type(None))):
                resume(rounds, p, "step")
                progressed = True
            elif isinstance(req, Barrier):
                at_barrier.add(p)
            else:  # pragma: no cover - defensive
                raise TypeError(f"node {p} yielded unknown request {req!r}")

        if not progressed and not (at_barrier and at_barrier == set(live)):
            def _diag(r):
                if isinstance(r, Recv):
                    return f"recv(src={r.src}, tag={r.tag!r})"
                if isinstance(r, Probe):
                    pend = [(h.src, h.tag) for h in r.handles if not h.done]
                    return f"probe({pend!r})"
                return "barrier" if isinstance(r, Barrier) else repr(r)

            def _blocked(r):
                if isinstance(r, Recv):
                    return ("recv", r.src, r.tag)
                if isinstance(r, Probe):
                    return ("probe", tuple(
                        (h.src, h.tag) for h in r.handles if not h.done))
                if isinstance(r, Barrier):
                    return ("barrier",)
                return ("other", repr(r))

            # deterministic report order: blocked nodes ascending,
            # undelivered messages by (destination, source, tag) — the
            # static verifier's witnesses follow the same ordering
            diag = {p: _diag(r) for p, r in sorted(waiting.items())}
            blocked = {p: _blocked(r) for p, r in sorted(waiting.items())}
            undelivered = sorted(network.pending_messages(),
                                 key=lambda m: (m[1], m[0], repr(m[2])))
            raise DeadlockError(
                f"deadlock after {rounds} rounds; blocked nodes: {diag}; "
                f"undelivered messages: {network.pending()}"
                + (f" {undelivered!r}" if undelivered else ""),
                blocked=blocked,
                undelivered=undelivered,
            )
