"""Rank-side SPMD runner: ``MpProgram``s over real Isend/Irecv.

Every rank executes the one real-process schedule,
:func:`repro.runtime.worker.run_sequence` — the function the shm workers
run — with :class:`MpiTransport` in place of the queue transport.  The
transport maps the schedule's steps onto nonblocking point-to-point
messages:

* **post**      — ``Irecv`` one buffer per expected ``(dst node, src
                  node, read pos)`` message *before* anything is sent,
                  so even self- and same-rank messages match without
                  buffering surprises;
* **send**      — ``Isend`` a fresh contiguous pre-state copy per
                  (read, peer) pair (valid until the clause's
                  ``Waitall``);
* **barrier**   — the pre-commit barrier, where the job's ``phase``
                  flags keep it (:func:`repro.analysis.phase_barriers`:
                  every clause of a sequence that moves messages keeps
                  it; rank memories are private, so it also pins the
                  per-clause skew to one clause);
* **drain**     — ``Waitall`` the receives, fill the rows' fill regions;
* **finish**    — ``Waitall`` the sends (send buffers stay referenced
                  until here).

Tags encode ``(seq, dst node, src node, pos)`` — the same key the shm
queues use — with the clause sequence number taken modulo
:data:`TAG_SEQ_WINDOW`.  The per-clause pre-commit barrier of a sending
sequence bounds rank skew to a single clause, so a window of 16 can
never alias.

Nodes attach to ranks round-robin (``node % size``) exactly like the
worker pool multiplexes nodes onto processes; with one rank per node and
a grid decomposition, ranks are additionally attached through a
Cartesian communicator whose dims match the decomposition's grid shape
(``reorder=False`` keeps cart ranks equal to linear node ids).

Because rank memories are private, a rank's copy of a global array is
authoritative exactly on the elements its nodes own — every remote read
lane arrives as a message.  The final allgather therefore exchanges only
``(write region, values)`` pairs per rank, after which every rank holds
the full post-state.

Run as a module this file is the in-world SPMD entry::

    mpiexec -n 4 python -m repro.mpi.rank            # E19/E13 selftest
    mpiexec -n P python -m repro.mpi.rank --job DIR  # launcher protocol
    mpiexec -n 2 python -m repro.mpi.rank --pingpong # calibration sweep

Without mpi4py the selftest runs on the stub transport (and says so).
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..runtime.stats import PHASES
from ..runtime.worker import Installed, run_sequence

__all__ = [
    "MpiJob",
    "MpiTransport",
    "TAG_SEQ_WINDOW",
    "encode_tag",
    "max_tag",
    "run_job",
]

#: clause-sequence window for tag encoding; per-clause barriers bound
#: rank skew to one clause, so aliasing needs 16 clauses of drift
TAG_SEQ_WINDOW = 16


def encode_tag(seq: int, dst_node: int, src_node: int, pos: int,
               pmax: int, nreads: int) -> int:
    """The message tag for one ``(run seq, dst, src, pos)`` key."""
    nr = max(1, nreads)
    return (((seq % TAG_SEQ_WINDOW) * pmax + dst_node) * pmax
            + src_node) * nr + pos


def max_tag(pmax: int, nreads: int) -> int:
    """Largest tag the encoding can produce for a program shape."""
    return encode_tag(TAG_SEQ_WINDOW - 1, pmax - 1, pmax - 1,
                      max(1, nreads) - 1, pmax, nreads)


@dataclass
class MpiJob:
    """Everything the ranks need for one launch (picklable)."""

    progs: tuple                    # MpProgram per clause
    flags: tuple                    # end-of-clause barrier flags
    phase: tuple = ()               # pre-commit barrier flags
    repeat: int = 1
    swap: tuple = ()                # buffer pairs exchanged per step
    names: tuple = ()               # global array names shipped
    grid_shape: tuple = ()          # () = no Cartesian attachment
    timeout: float = 120.0
    fault_rank: int = -1            # test hook: this rank raises mid-run


class MpiTransport:
    """Nonblocking point-to-point messages on *comm* (mpi4py or the
    stub) for the clause sequence *progs*; progress goes to the one-slot
    *phase* list the failure path reads."""

    def __init__(self, comm, progs, phase: List[str], fault_rank: int = -1):
        self.comm = comm
        self.rank = comm.rank
        self.progs = progs
        self.phase = phase
        self.fault_rank = fault_rank

    def set_phase(self, idx: int, node: int = -1, seq: int = -1) -> None:
        self.phase[0] = PHASES[idx]

    def _tag(self, dst: int, src: int, pos: int) -> int:
        return encode_tag(self.seq, dst, src, pos, self.pmax, self.nreads)

    def post(self, seq: int, expect) -> None:
        self.phase[0] = "post"
        prog = self.progs[seq % len(self.progs)]
        self.seq, self.pmax, self.nreads = seq, prog.pmax, prog.nreads
        self.sends, self.bufs = [], []  # requests + their live payloads
        self.recvs = []
        for dst, src, pos, row, fill in expect:
            buf = np.empty(int(fill.size), dtype=np.float64)
            req = self.comm.irecv(buf, source=int(src) % self.comm.size,
                                  tag=self._tag(dst, int(src), pos))
            self.recvs.append((req, dst, row, fill, buf))

    def send(self, inst, p, pos, q, values) -> np.ndarray:
        buf = values.flatten()  # a fresh contiguous pre-state copy
        self.sends.append(self.comm.isend(
            buf, dest=int(q) % self.comm.size,
            tag=self._tag(int(q), p, pos)))
        self.bufs.append(buf)
        return buf

    def barrier(self, node: int) -> None:
        # fault-injection hook: fail between the first clause's gather
        # and its pre-commit barrier, while peers already wait
        if self.fault_rank == self.rank and self.seq == 0:
            raise RuntimeError(
                f"injected fault on rank {self.rank} (test hook)")
        self.comm.barrier()

    def drain(self, deliver) -> None:
        self.comm.waitall([r[0] for r in self.recvs])
        for _req, dst, row, fill, buf in self.recvs:
            deliver(dst, row, fill, buf)

    def finish(self) -> None:
        self.phase[0] = "send-wait"
        self.comm.waitall(self.sends)
        self.bufs = []


def _final_names(write_name: str, job: MpiJob) -> Tuple[str, ...]:
    """Array names the content written under *write_name* can end up
    under: the name itself plus, under a time-loop buffer swap, its
    partner — the swap after the last step leaves the final commits
    under the partner's name.  The pipeline pass has already proven the
    pair placement-compatible, so the node -> positions map is identical
    under either name."""
    names = {write_name}
    for a, b in job.swap:
        if write_name == a:
            names.add(b)
        elif write_name == b:
            names.add(a)
    return tuple(sorted(names))


def _contrib(insts, job: MpiJob, arrays) -> Dict[str, list]:
    """This rank's authoritative post-state: for every array name the
    ``(write region, values)`` pairs of the blocks its nodes commit.
    Rank-private commits only ever touch owned positions, so the local
    values under those regions are the global truth."""
    out: Dict[str, list] = {}
    for inst in insts:
        for name in _final_names(inst.write_name, job):
            out.setdefault(name, []).extend(
                (blk.write, np.array(blk.write.take(arrays[name])))
                for node in inst.my_nodes for blk in node.commits)
    return out


def run_job(comm, job: MpiJob, arrays: Dict[str, np.ndarray]):
    """Execute *job* SPMD on *comm* against rank-private *arrays*
    (mutated to the full post-state on **every** rank via the final
    allgather).  Returns ``(stats_by_rank, counts_by_rank)`` — the same
    lists on every rank, sorted by rank."""
    phase = ["install"]
    try:
        for prog in job.progs:
            need = max_tag(prog.pmax, prog.nreads)
            if need > comm.tag_ub:
                raise RuntimeError(
                    f"encoded tag space needs {need} but this MPI "
                    f"implementation guarantees only tag_ub={comm.tag_ub}")
        insts = [Installed(prog.payload_for(comm.rank, comm.size))
                 for prog in job.progs]
        stats, counts = run_sequence(
            insts, job.repeat, job.swap, job.flags, job.phase,
            lambda node: arrays,
            MpiTransport(comm, job.progs, phase, job.fault_rank))

        # ---- exchange authoritative post-state + observability ------------
        phase[0] = "collect"
        contrib = _contrib(insts, job, arrays)
        gathered = comm.allgather_obj((contrib, stats, counts))
    except BaseException as err:
        # never leave sibling ranks blocked: abort the world, then let
        # the failure surface (launcher exit code / stub thread record)
        try:
            comm.abort(1)
        except Exception:
            pass
        err._mpi_phase = phase[0]  # parent-side diagnosis
        raise
    for rank_contrib, _s, _c in gathered:
        for name, pairs in rank_contrib.items():
            for region, values in pairs:
                region.store(arrays[name], values)
    stats_by_rank = sorted((s for _c2, s, _n in gathered),
                           key=lambda s: s.rank)
    counts_by_rank = [c for _c2, _s, c in gathered]
    return stats_by_rank, counts_by_rank


def attach(comm, job: MpiJob):
    """Cartesian attachment when the grid dims cover the world exactly
    (one rank per node); round-robin multiplexing otherwise."""
    if job.grid_shape:
        total = 1
        for g in job.grid_shape:
            total *= g
        if total == comm.size:
            return comm.make_cart(job.grid_shape)
    return comm


# ---------------------------------------------------------------------------
# module entry: --job (launcher protocol), --pingpong, selftest
# ---------------------------------------------------------------------------

def _main_job(comm, jobdir: str) -> int:
    if comm.rank == 0:
        with open(os.path.join(jobdir, "job.pkl"), "rb") as fh:
            job = pickle.load(fh)  # noqa: S301 — launcher-written file
        with np.load(os.path.join(jobdir, "env.npz")) as data:
            arrays = {name: np.array(data[name]) for name in data.files}
    else:
        job = arrays = None
    job = comm.bcast_obj(job)
    arrays = comm.bcast_obj(arrays)
    arrays = {name: np.ascontiguousarray(arr, dtype=np.float64)
              for name, arr in arrays.items()}
    stats, counts = run_job(attach(comm, job), job, arrays)
    if comm.rank == 0:
        np.savez(os.path.join(jobdir, "result.npz"), **arrays)
        payload = {
            "stats": [s.as_dict() for s in stats],
            "counts": [{str(p): vars(c) for p, c in by.items()}
                       for by in counts],
        }
        with open(os.path.join(jobdir, "stats.json"), "w") as fh:
            json.dump(payload, fh)
    return 0


def _main_pingpong(comm, sizes, reps: int) -> int:
    """Rank 0 <-> rank 1 round-trip sweep; rank 0 prints one JSON object
    with per-size one-way seconds (the `repro calibrate` input)."""
    if comm.size < 2:
        if comm.rank == 0:
            print(json.dumps({"error": "pingpong needs >= 2 ranks"}))
        return 1
    points = []
    for n in sizes:
        buf = np.zeros(n, dtype=np.float64)
        # warmup exchange
        for _ in range(3):
            _exchange(comm, buf)
        t0 = time.perf_counter()
        for _ in range(reps):
            _exchange(comm, buf)
        dt = time.perf_counter() - t0
        points.append([int(n), dt / reps / 2.0])  # one-way
    comm.barrier()
    if comm.rank == 0:
        print(json.dumps({"points": points, "reps": reps,
                          "ranks": comm.size}))
    return 0


def _exchange(comm, buf: np.ndarray) -> None:
    if comm.rank == 0:
        comm.waitall([comm.isend(buf, dest=1, tag=7)])
        comm.waitall([comm.irecv(buf, source=1, tag=8)])
    elif comm.rank == 1:
        comm.waitall([comm.irecv(buf, source=0, tag=7)])
        comm.waitall([comm.isend(buf, dest=0, tag=8)])


def _selftest(nranks: int, rank: int = 0) -> int:
    """E19 (2-D five-point stencil on a grid) and E13 (1-D stencil), the
    acceptance workloads, through the parent-side driver on the ``mpi``
    launch: every rank checks bit-identity with fused, rank 0 reports."""
    from ..codegen import compile_clause, run_distributed
    from ..codegen.nddist import (
        collect_nd,
        compile_clause_nd_dist,
        run_distributed_nd,
    )
    from ..core import (
        AffineF,
        Bounds,
        Clause,
        Const,
        IdentityF,
        IndexSet,
        Ref,
        SeparableMap,
        copy_env,
    )
    from ..core.expr import BinOp
    from ..decomp import Block, GridDecomposition
    from ..runtime.exec import run_distributed_mp

    n = 48
    sides = {1: (1, 1), 2: (2, 1), 4: (2, 2), 8: (4, 2)}
    side = sides.get(nranks, (nranks, 1))

    def sref(di, dj):
        fi = AffineF(1, di) if di else IdentityF()
        fj = AffineF(1, dj) if dj else IdentityF()
        return Ref("S", SeparableMap([fi, fj]))

    e19 = Clause(
        IndexSet(Bounds((1, 1), (n - 2, n - 2))),
        Ref("T", SeparableMap([IdentityF(), IdentityF()])),
        BinOp("*", Const(0.25),
              BinOp("+", BinOp("+", sref(-1, 0), sref(1, 0)),
                    BinOp("+", sref(0, -1), sref(0, 1)))),
    )
    grid = GridDecomposition([Block(n, side[0]), Block(n, side[1])])
    e13 = Clause(
        domain=IndexSet.range1d(1, n - 2),
        lhs=Ref("A", SeparableMap([AffineF(1, 0)])),
        rhs=Ref("B", SeparableMap([AffineF(1, -1)]))
        + Ref("B", SeparableMap([AffineF(1, 1)])),
    )
    rng = np.random.default_rng(2026)
    env = {
        "S": rng.random((n, n)), "T": np.zeros((n, n)),
        "A": np.zeros(n), "B": rng.random(n),
    }
    runs = [
        ("E19", compile_clause_nd_dist(e19, {"T": grid, "S": grid}), "T",
         lambda plan: collect_nd(run_distributed_nd(
             plan, copy_env(env), backend="fused"), "T")),
        ("E13", compile_clause(e13, {"A": Block(n, nranks),
                                     "B": Block(n, nranks)}), "A",
         lambda plan: run_distributed(
             plan, copy_env(env), backend="fused").collect("A")),
    ]
    ok = True
    for label, plan, write, fused in runs:
        m = run_distributed_mp(plan.ir, copy_env(env), processes=nranks,
                               launch="mpi")
        same = bool(np.array_equal(m.collect(write), fused(plan)))
        ok &= same
        if rank == 0:
            print(f"repro.mpi selftest [{m.mode}] {label} P={nranks}: "
                  f"bit-identical to fused: {same}")
    if rank == 0:
        print("repro.mpi selftest:", "OK" if ok else "FAILED")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    from .support import in_mpi_world, mpi_support, reset_mpi_support

    ap = argparse.ArgumentParser(
        prog="python -m repro.mpi.rank",
        description="in-world SPMD entry of the MPI backend "
                    "(run under mpiexec -n P)")
    ap.add_argument("--job", metavar="DIR", default=None,
                    help="launcher protocol: load DIR/job.pkl + env.npz, "
                         "write DIR/result.npz + stats.json from rank 0")
    ap.add_argument("--pingpong", action="store_true",
                    help="alpha/beta calibration sweep between ranks 0 "
                         "and 1 (JSON on stdout)")
    ap.add_argument("--sizes", default="1,64,1024,8192,65536",
                    help="comma-separated message sizes for --pingpong")
    ap.add_argument("--reps", type=int, default=50)
    ap.add_argument("--np", dest="nranks", type=int, default=4,
                    help="stub rank count when run without mpi4py")
    args = ap.parse_args(argv)

    sup = mpi_support()
    if sup.mode == "mpi4py" or in_mpi_world():
        try:
            from .transport import world_comm

            comm = world_comm()
        except ImportError as e:
            print(f"error: launched under MPI but mpi4py is not "
                  f"importable: {e}", file=sys.stderr)
            return 2
        if args.job:
            return _main_job(comm, args.job)
        if args.pingpong:
            return _main_pingpong(
                comm, [int(s) for s in args.sizes.split(",")], args.reps)
        return _selftest(comm.size, comm.rank)
    if args.job or args.pingpong:
        print(f"error: --job/--pingpong need an MPI world ({sup.reason})",
              file=sys.stderr)
        return 2
    print(f"note: {sup.reason}; running the selftest on the stub "
          f"transport with {args.nranks} thread-ranks", file=sys.stderr)
    os.environ.pop("REPRO_NO_MPI", None)
    os.environ["REPRO_MPI_STUB"] = "1"
    reset_mpi_support()
    return _selftest(args.nranks)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
