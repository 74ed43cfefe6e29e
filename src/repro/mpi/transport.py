"""Rank transports: mpi4py point-to-point and the in-process stub.

The rank runner (:mod:`repro.mpi.rank`) is written against one small
surface — nonblocking ``isend``/``irecv`` on float64 buffers, ``waitall``,
``barrier``, object ``bcast``/``allgather``, and Cartesian attachment —
with two implementations:

:class:`Mpi4pyComm`
    wraps an ``mpi4py.MPI`` communicator; ``make_cart`` calls
    ``Create_cart(dims=grid, periods=False, reorder=False)`` so the cart
    rank order matches the decomposition's row-major node numbering and
    the runner's node-to-rank map (:func:`repro.pipeline.kernels.owner`,
    the identity with one rank per node) stays valid.

:class:`StubComm`
    ``REPRO_MPI_STUB`` testing mode: every rank is a thread of one
    :class:`StubWorld`, messages travel through per-rank mailboxes keyed
    by ``(source, tag)`` (FIFO per key, content *copied* at send time so
    rank memories stay genuinely private), and the pre-commit barrier is
    a ``threading.Barrier``.  A rank failure aborts the world — every
    blocked wait wakes with :class:`StubAbort` — so a killed rank can
    never leave sibling threads hanging (the ``WorkerCrashError``-analog
    teardown the tests assert).

Both transports expose ``tag_ub`` so the runner can verify the encoded
``(seq, dst, src, pos)`` tag space fits before posting anything.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "Mpi4pyComm",
    "StubAbort",
    "StubComm",
    "StubWorld",
    "world_comm",
]


# ---------------------------------------------------------------------------
# mpi4py transport
# ---------------------------------------------------------------------------

class Mpi4pyComm:
    """Thin adapter over an ``mpi4py.MPI`` communicator."""

    mode = "mpi4py"

    def __init__(self, comm=None):
        from mpi4py import MPI

        self.MPI = MPI
        self.comm = MPI.COMM_WORLD if comm is None else comm
        self.rank = self.comm.Get_rank()
        self.size = self.comm.Get_size()
        tag_ub = self.comm.Get_attr(MPI.TAG_UB)
        # the MPI standard guarantees at least 32767 when the attribute
        # is (unusually) absent
        self.tag_ub = int(tag_ub) if tag_ub else 32767
        self.coords: Optional[Tuple[int, ...]] = None

    def make_cart(self, grid_shape) -> "Mpi4pyComm":
        """Attach through a Cartesian communicator matching the
        decomposition's grid dims.  ``reorder=False`` keeps rank numbers
        identical to the parent communicator, so linear node ids and
        cart coordinates agree with the decomposition's row-major
        numbering."""
        cart = self.comm.Create_cart(
            dims=list(grid_shape),
            periods=[False] * len(grid_shape),
            reorder=False,
        )
        out = Mpi4pyComm(cart)
        out.coords = tuple(cart.Get_coords(out.rank))
        return out

    def isend(self, buf: np.ndarray, dest: int, tag: int):
        return self.comm.Isend([buf, self.MPI.DOUBLE], dest=dest, tag=tag)

    def irecv(self, buf: np.ndarray, source: int, tag: int):
        return self.comm.Irecv([buf, self.MPI.DOUBLE], source=source,
                               tag=tag)

    def waitall(self, requests) -> None:
        self.MPI.Request.Waitall(list(requests))

    def barrier(self) -> None:
        self.comm.Barrier()

    def bcast_obj(self, obj, root: int = 0):
        return self.comm.bcast(obj, root=root)

    def allgather_obj(self, obj) -> list:
        return self.comm.allgather(obj)

    def abort(self, code: int = 1) -> None:
        self.comm.Abort(code)


def world_comm() -> Mpi4pyComm:
    """The COMM_WORLD adapter (imports — and thereby initializes —
    mpi4py; only call when actually launched under MPI)."""
    return Mpi4pyComm()


# ---------------------------------------------------------------------------
# stub transport (threads + mailboxes)
# ---------------------------------------------------------------------------

class StubAbort(RuntimeError):
    """The stub world was aborted by a failing rank."""


class _Mailbox:
    """One rank's inbox: FIFO message queues keyed by (source, tag)."""

    def __init__(self, world: "StubWorld"):
        self.world = world
        self.cond = threading.Condition()
        self.queues: Dict[Tuple[int, int], deque] = {}

    def put(self, source: int, tag: int, payload: np.ndarray) -> None:
        with self.cond:
            self.queues.setdefault((source, tag), deque()).append(payload)
            self.cond.notify_all()

    def get(self, source: int, tag: int, deadline: float) -> np.ndarray:
        key = (source, tag)
        with self.cond:
            while True:
                if self.world.aborted:
                    raise StubAbort("stub world aborted")
                q = self.queues.get(key)
                if q:
                    return q.popleft()
                left = deadline - time.monotonic()
                if left <= 0:
                    raise TimeoutError(
                        f"stub recv (source={source}, tag={tag}) timed out")
                self.cond.wait(min(left, 0.1))

    def wake(self) -> None:
        with self.cond:
            self.cond.notify_all()


class StubWorld:
    """One in-process MPI world of *size* ranks (threads)."""

    def __init__(self, size: int, timeout: float = 120.0):
        self.size = size
        self.timeout = float(timeout)
        self.barrier = threading.Barrier(size)
        self.mailboxes = [_Mailbox(self) for _ in range(size)]
        self.slots: List[object] = [None] * size
        self.bcast_slot: object = None
        self.aborted = False

    def abort(self) -> None:
        self.aborted = True
        self.barrier.abort()
        for mb in self.mailboxes:
            mb.wake()

    def comm(self, rank: int) -> "StubComm":
        return StubComm(self, rank)


class _StubRecvRequest:
    def __init__(self, comm: "StubComm", buf, source, tag):
        self.comm, self.buf, self.source, self.tag = comm, buf, source, tag

    def wait(self) -> None:
        payload = self.comm.world.mailboxes[self.comm.rank].get(
            self.source, self.tag, self.comm._deadline)
        np.copyto(self.buf, payload)


class _StubSendRequest:
    def wait(self) -> None:  # delivery happened at isend time
        pass


class StubComm:
    """One rank's endpoint in a :class:`StubWorld`."""

    mode = "stub"
    tag_ub = 2 ** 31 - 1

    def __init__(self, world: StubWorld, rank: int):
        self.world = world
        self.rank = rank
        self.size = world.size
        self.coords: Optional[Tuple[int, ...]] = None
        self._deadline = time.monotonic() + world.timeout

    def make_cart(self, grid_shape) -> "StubComm":
        out = StubComm(self.world, self.rank)
        out.coords = tuple(
            int(c) for c in np.unravel_index(self.rank, grid_shape))
        return out

    def isend(self, buf: np.ndarray, dest: int, tag: int):
        # copy at send time: rank memories are private, and the runner
        # may release its send buffer after waitall
        self.world.mailboxes[dest].put(self.rank, tag,
                                       np.array(buf, dtype=np.float64))
        return _StubSendRequest()

    def irecv(self, buf: np.ndarray, source: int, tag: int):
        return _StubRecvRequest(self, buf, source, tag)

    def waitall(self, requests) -> None:
        for req in requests:
            req.wait()

    def barrier(self) -> None:
        if self.world.aborted:
            raise StubAbort("stub world aborted")
        left = self._deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError(f"stub rank {self.rank} barrier timed out")
        try:
            self.world.barrier.wait(left)
        except threading.BrokenBarrierError:
            if self.world.aborted:
                raise StubAbort("stub world aborted") from None
            raise TimeoutError(
                f"stub rank {self.rank} barrier broken (peer timed out "
                "or crashed)") from None

    # object collectives: two barrier generations bracket the slot
    # exchange so a fast rank can never overwrite a slot that a slow
    # rank has not read yet
    def bcast_obj(self, obj, root: int = 0):
        if self.rank == root:
            self.world.bcast_slot = obj
        self.barrier()
        out = self.world.bcast_slot
        self.barrier()
        return out

    def allgather_obj(self, obj) -> list:
        self.world.slots[self.rank] = obj
        self.barrier()
        out = list(self.world.slots)
        self.barrier()
        return out

    def abort(self, code: int = 1) -> None:
        self.world.abort()
