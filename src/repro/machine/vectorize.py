"""Vectorized segment executor.

The Table I generation functions hand every node its membership sets as
closed-form strided segments.  The scalar templates walk those segments
element by element in Python; this module executes each *whole
enumeration* as NumPy array operations instead — one strided index
vector per loop axis, placement functions applied as array arithmetic
(``Decomposition.proc_array``/``local_array``), the clause body evaluated
element-wise over the full membership at once, and communication batched
into one message per (read, peer) pair.

Alignment invariant: every membership index vector is sorted ascending
and Cartesian products are taken in lexicographic (row-major) order, so
two nodes enumerating the same index set walk it identically.  That is
what lets the sender transmit a bare value vector — the receiver
reconstructs the positions from its own enumeration, no indices on the
wire.

The executor is selected with ``backend="vector"`` on the template
runners (:func:`repro.codegen.shared_tmpl.run_shared` and friends) and
drives everything off the unified :class:`~repro.pipeline.ir.PlanIR`.
Sequential (``•``) clauses keep the scalar path — their semantics are a
serial chain, which is exactly what vectorization removes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..core.clause import Ordering
from ..core.expr import BinOp, Const, LoopIndex, Ref, UnOp
from ..core.ifunc import apply_ifunc
from ..decomp.multidim import GridDecomposition
from ..pipeline.ir import AccessIR, PlanIR, access_spec
from ..pipeline.region import vec
from .distributed import DistributedMachine, NodeContext
from .shared import SharedMachine

__all__ = [
    "VEC_OPS",
    "VEC_UNARY",
    "apply_ifunc",
    "eval_expr_vec",
    "run_shared_vector",
    "make_vector_node_program",
    "run_distributed_vector",
    "make_overlap_node_program",
    "run_distributed_overlap",
]

#: element-wise operator table (the ndarray-safe counterpart of
#: ``repro.core.expr.OPS``: builtin min/max and short-circuit and/or do
#: not broadcast).
VEC_OPS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.true_divide,
    "div": np.floor_divide,
    "mod": np.mod,
    "min": np.minimum,
    "max": np.maximum,
    ">": np.greater,
    ">=": np.greater_equal,
    "<": np.less,
    "<=": np.less_equal,
    "=": np.equal,
    "!=": np.not_equal,
    "and": np.logical_and,
    "or": np.logical_or,
}

VEC_UNARY = {
    "-": np.negative,
    "not": np.logical_not,
    "abs": np.absolute,
}


def eval_expr_vec(expr, idx_vecs: List[np.ndarray], fetch):
    """Evaluate an expression tree element-wise over the index vectors.

    *fetch* maps each :class:`Ref` to its value vector (global gather in
    shared memory, pre-received message vector in distributed memory).
    """
    if isinstance(expr, Ref):
        return fetch(expr)
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, LoopIndex):
        return idx_vecs[expr.dim]
    if isinstance(expr, BinOp):
        return VEC_OPS[expr.op](
            eval_expr_vec(expr.left, idx_vecs, fetch),
            eval_expr_vec(expr.right, idx_vecs, fetch),
        )
    if isinstance(expr, UnOp):
        return VEC_UNARY[expr.op](eval_expr_vec(expr.operand, idx_vecs, fetch))
    raise TypeError(f"cannot evaluate expression node {type(expr).__name__}")


# ---------------------------------------------------------------------------
# membership / placement over index vectors
# ---------------------------------------------------------------------------

def _member_vecs(ir: PlanIR, acc: AccessIR, p: int) -> List[np.ndarray]:
    """Per-loop-dimension index vectors whose implicit Cartesian product
    (row-major, flattened) is the access's membership set on node *p*.

    Returned flattened: ``len(loop_bounds)`` vectors of equal length, one
    entry per member index tuple, in lexicographic order.
    """
    coord = acc.grid_coord(p)
    per_dim: List[np.ndarray] = []
    for d, (lo, hi) in enumerate(ir.loop_bounds):
        if acc.axes and d in acc.dims:
            k = acc.dims.index(d)
            per_dim.append(acc.axes[k].access.enumerate(coord[k]).index_array())
        else:
            per_dim.append(np.arange(lo, hi + 1, dtype=np.int64))
    if len(per_dim) == 1:
        return per_dim
    meshes = np.meshgrid(*per_dim, indexing="ij")
    return [m.ravel() for m in meshes]


def _array_vecs(acc: AccessIR, idx_vecs: List[np.ndarray]) -> List[np.ndarray]:
    """The access's array index vectors ``f_k(i_{dims[k]})``."""
    return [apply_ifunc(f, idx_vecs[d]) for d, f in zip(acc.dims, acc.funcs)]


def _proc_linear(acc: AccessIR, idx_vecs: List[np.ndarray]) -> np.ndarray:
    """Owning (linear) processor of every member index tuple."""
    ai = _array_vecs(acc, idx_vecs)
    dec = acc.dec
    if isinstance(dec, GridDecomposition):
        out = np.zeros(ai[0].shape, dtype=np.int64)
        for axis_dec, g, a in zip(dec.dims, dec.grid_shape, ai):
            out = out * g + axis_dec.proc_array(a)
        return out
    return dec.proc_array(ai[0])


def _local_key(acc: AccessIR, idx_vecs: List[np.ndarray]):
    """Local-buffer index (vector or tuple of vectors) of every member."""
    ai = _array_vecs(acc, idx_vecs)
    dec = acc.dec
    if isinstance(dec, GridDecomposition):
        return tuple(
            axis_dec.local_array(a) for axis_dec, a in zip(dec.dims, ai)
        )
    if acc.replicated:
        return tuple(ai) if len(ai) > 1 else ai[0]
    return dec.local_array(ai[0])


def _gather_local(mem, acc: AccessIR, idx_vecs: List[np.ndarray]) -> np.ndarray:
    """Fetch the access's values from a node-local buffer."""
    key = _local_key(acc, idx_vecs)
    return np.asarray(mem[acc.name][key], dtype=np.float64)


def _as_value_vec(value, n: int) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != (n,):
        arr = np.broadcast_to(arr, (n,)).copy()
    return arr


# ---------------------------------------------------------------------------
# shared-memory executor (§2.9 template, vectorized)
# ---------------------------------------------------------------------------

def run_shared_vector(
    ir: PlanIR,
    env: Dict[str, np.ndarray],
    machine: Optional[SharedMachine] = None,
) -> SharedMachine:
    """Execute a ``//`` clause on the shared machine with one batched
    phase per node: membership as index vectors, guard as a boolean
    mask, the write as one fancy-indexed assignment.  Matches the scalar
    template element-for-element (all phases read pre-state; commits
    follow in node order)."""
    clause = ir.clause
    if clause.ordering is not Ordering.PAR:
        raise ValueError("the vector executor handles // clauses; "
                         "• clauses keep the scalar path")
    if machine is None:
        machine = SharedMachine(ir.pmax, env)
    genv = machine.env

    def make_fetch(idx_vecs):
        def fetch(ref: Ref):
            dims, funcs = access_spec(ref.imap)
            ai = [apply_ifunc(f, idx_vecs[d]) for d, f in zip(dims, funcs)]
            arr = genv[ref.name]
            return arr[tuple(ai) if len(ai) > 1 else ai[0]]
        return fetch

    pending = []
    for p in range(ir.pmax):
        idx_vecs = _member_vecs(ir, ir.write, p)
        n = int(idx_vecs[0].size)
        machine.stats[p].iterations += n
        if n == 0:
            pending.append((p, None, None, None))
            continue
        fetch = make_fetch(idx_vecs)
        mask = None
        if clause.guard is not None:
            mask = np.broadcast_to(np.asarray(
                eval_expr_vec(clause.guard, idx_vecs, fetch), dtype=bool
            ), (n,))
        values = _as_value_vec(eval_expr_vec(clause.rhs, idx_vecs, fetch), n)
        w_ai = _array_vecs(ir.write, idx_vecs)
        pending.append((p, w_ai, values, mask))

    target = genv[clause.lhs.name]
    for p, w_ai, values, mask in pending:
        machine.stats[p].barriers += 1
        if w_ai is None:
            continue
        if mask is not None:
            w_ai = [a[mask] for a in w_ai]
            values = values[mask]
        target[tuple(w_ai) if len(w_ai) > 1 else w_ai[0]] = values
        machine.stats[p].local_updates += int(values.size)
    return machine


# ---------------------------------------------------------------------------
# distributed-memory executor (§2.10 template, vectorized)
# ---------------------------------------------------------------------------

def make_vector_node_program(ir: PlanIR, ctx: NodeContext):
    """Batched node program: one message per (read, peer) pair.

    Send phase: for each non-replicated read, gather the locally resident
    values over ``Reside_p`` and ship one value vector per destination
    writer.  Update phase: walk ``Modify_p``, assemble each read's value
    vector from local gathers plus one receive per source, evaluate guard
    and body element-wise, commit with one fancy-indexed store.
    """

    def program():
        p = ctx.p
        clause = ir.clause
        refs = list(clause.reads())

        # ---- send phase ---------------------------------------------------
        for acc in ir.reads:
            if acc.replicated:
                continue
            idx_vecs = _member_vecs(ir, acc, p)
            n = int(idx_vecs[0].size)
            if n == 0:
                continue
            ctx.stats.iterations += n
            dest = _proc_linear(ir.write, idx_vecs)
            vals = _gather_local(ctx.mem, acc, idx_vecs)
            for q in np.unique(dest):
                q = int(q)
                if q == p:
                    continue
                ctx.send(q, ("vec", acc.pos),
                         np.ascontiguousarray(vals[dest == q]))

        # ---- update phase -------------------------------------------------
        idx_vecs = _member_vecs(ir, ir.write, p)
        n = int(idx_vecs[0].size)
        ctx.stats.iterations += n
        if n:
            by_ref: Dict[int, np.ndarray] = {}
            for acc, ref in zip(ir.reads, refs):
                if acc.replicated:
                    by_ref[id(ref)] = _gather_local(ctx.mem, acc, idx_vecs)
                    continue
                src = _proc_linear(acc, idx_vecs)
                vals = np.empty(n, dtype=np.float64)
                local = src == p
                if local.any():
                    sub = [v[local] for v in idx_vecs]
                    vals[local] = _gather_local(ctx.mem, acc, sub)
                for s in np.unique(src[~local]):
                    payload = ctx.note_received(
                        (yield ctx.recv(int(s), ("vec", acc.pos)))
                    )
                    vals[src == s] = np.asarray(payload, dtype=np.float64)
                by_ref[id(ref)] = vals

            def fetch(ref: Ref):
                return by_ref[id(ref)]

            ctx.charge_elements(n)
            mask = None
            if clause.guard is not None:
                mask = np.broadcast_to(np.asarray(
                    eval_expr_vec(clause.guard, idx_vecs, fetch), dtype=bool
                ), (n,))
            values = _as_value_vec(
                eval_expr_vec(clause.rhs, idx_vecs, fetch), n)
            key = _local_key(ir.write, idx_vecs)
            key_vecs = key if isinstance(key, tuple) else (key,)
            if mask is not None:
                key_vecs = tuple(a[mask] for a in key_vecs)
                values = values[mask]
            buf = ctx.mem[ir.write.name]
            buf[key_vecs if len(key_vecs) > 1 else key_vecs[0]] = values
            ctx.stats.local_updates += int(values.size)

        yield ctx.barrier()

    return program()


def _run_nodes(ir: PlanIR, env: Dict[str, np.ndarray],
               machine: Optional[DistributedMachine], model,
               node_program) -> DistributedMachine:
    """Place *env* on a new machine (a given *machine* already holds the
    placed arrays), run ``node_program(ctx)`` on every node, return the
    machine — the one driver of every simulated-mailbox executor."""
    if machine is None:
        machine = DistributedMachine(ir.pmax, model=model)
        decs = {ir.write.name: ir.write.dec}
        for acc in ir.reads:
            decs.setdefault(acc.name, acc.dec)
        for name, dec in decs.items():
            machine.place(name, env[name], dec)
    machine.run(node_program)
    return machine


def run_distributed_vector(
    ir: PlanIR,
    env: Dict[str, np.ndarray],
    machine: Optional[DistributedMachine] = None,
    model=None,
) -> DistributedMachine:
    """Place *env*, run the batched node programs, return the machine."""
    if ir.clause.ordering is not Ordering.PAR:
        raise ValueError("the vector executor handles // clauses")
    if ir.write.replicated:
        raise ValueError("replicated writes keep the scalar path")
    return _run_nodes(ir, env, machine, model,
                      lambda ctx: make_vector_node_program(ir, ctx))


# ---------------------------------------------------------------------------
# overlapped executor (interior/boundary split, non-blocking receives)
# ---------------------------------------------------------------------------

def _interior_mask(ir: PlanIR, p: int, idx_vecs: List[np.ndarray]) -> np.ndarray:
    """Boolean mask over the flattened ``Modify_p`` enumeration selecting
    the node's interior (every non-replicated read locally resident).

    The per-dimension interior keys come from the `split-interior`
    pass; the product structure means the mask is the AND of per-dimension
    memberships.  A plan compiled without the pass gets an empty interior
    — the overlap program then degrades to the vector schedule (drain
    first, then compute), which is still correct."""
    n = int(idx_vecs[0].size)
    split = ir.interior_split
    if split is None or p not in split.per_node:
        return np.zeros(n, dtype=bool)
    ns = split.per_node[p]
    mask = np.ones(n, dtype=bool)
    for d, key in enumerate(ns.interior):
        mask &= np.isin(idx_vecs[d], vec(key))
    return mask


def make_overlap_node_program(ir: PlanIR, ctx: NodeContext):
    """Overlapped node program: communicate and compute concurrently.

    Schedule per node: (1) post all sends (same batched messages and tags
    as the vector program); (2) gather every locally resident read value
    — *before* any commit, so a read of the written array still sees
    pre-state; (3) post non-blocking receives for the remote portions;
    (4) compute and commit the interior (all reads local by
    construction) while messages are in flight; (5) drain the receives
    with Probe; (6) compute and commit the boundary remainder.

    Element-wise float64 evaluation is per-lane, so computing the
    interior and boundary as separate sub-vectors is bit-identical to the
    vector program's single full-vector evaluation.
    """

    def program():
        p = ctx.p
        clause = ir.clause
        refs = list(clause.reads())

        # ---- send phase (identical to the vector program) -----------------
        for acc in ir.reads:
            if acc.replicated:
                continue
            idx_vecs = _member_vecs(ir, acc, p)
            n = int(idx_vecs[0].size)
            if n == 0:
                continue
            ctx.stats.iterations += n
            dest = _proc_linear(ir.write, idx_vecs)
            vals = _gather_local(ctx.mem, acc, idx_vecs)
            for q in np.unique(dest):
                q = int(q)
                if q == p:
                    continue
                ctx.send(q, ("vec", acc.pos),
                         np.ascontiguousarray(vals[dest == q]))

        # ---- update phase -------------------------------------------------
        idx_vecs = _member_vecs(ir, ir.write, p)
        n = int(idx_vecs[0].size)
        ctx.stats.iterations += n
        if n:
            # Local gathers first (pre-state), then post the receives.
            by_ref: Dict[int, np.ndarray] = {}
            pending = []  # (handle, value vector, lanes it fills)
            for acc, ref in zip(ir.reads, refs):
                if acc.replicated:
                    by_ref[id(ref)] = _gather_local(ctx.mem, acc, idx_vecs)
                    continue
                src = _proc_linear(acc, idx_vecs)
                vals = np.empty(n, dtype=np.float64)
                local = src == p
                if local.any():
                    sub = [v[local] for v in idx_vecs]
                    vals[local] = _gather_local(ctx.mem, acc, sub)
                for s in np.unique(src[~local]):
                    handle = yield ctx.irecv(int(s), ("vec", acc.pos))
                    pending.append((handle, vals, src == int(s)))
                by_ref[id(ref)] = vals

            def commit(lanes: np.ndarray) -> None:
                """Evaluate guard/body over the selected lanes and store."""
                if not lanes.size:
                    return
                sub_idx = [v[lanes] for v in idx_vecs]

                def fetch(ref: Ref):
                    return by_ref[id(ref)][lanes]

                m = int(lanes.size)
                mask = None
                if clause.guard is not None:
                    mask = np.broadcast_to(np.asarray(
                        eval_expr_vec(clause.guard, sub_idx, fetch),
                        dtype=bool), (m,))
                values = _as_value_vec(
                    eval_expr_vec(clause.rhs, sub_idx, fetch), m)
                key = _local_key(ir.write, sub_idx)
                key_vecs = key if isinstance(key, tuple) else (key,)
                if mask is not None:
                    key_vecs = tuple(a[mask] for a in key_vecs)
                    values = values[mask]
                buf = ctx.mem[ir.write.name]
                buf[key_vecs if len(key_vecs) > 1 else key_vecs[0]] = values
                ctx.stats.local_updates += int(values.size)

            # Interior while messages are in flight.
            interior = _interior_mask(ir, p, idx_vecs)
            ilanes = np.nonzero(interior)[0]
            ctx.charge_elements(int(ilanes.size))
            commit(ilanes)

            # Drain the posted receives.
            while pending:
                done = yield ctx.probe([h for h, _, _ in pending])
                k = next(i for i, (h, _, _) in enumerate(pending)
                         if h is done)
                _, vals, fill = pending.pop(k)
                vals[fill] = np.asarray(
                    ctx.note_received(done.payload), dtype=np.float64)

            # Boundary remainder.
            blanes = np.nonzero(~interior)[0]
            ctx.charge_elements(int(blanes.size))
            commit(blanes)

        yield ctx.barrier()

    return program()


def run_distributed_overlap(
    ir: PlanIR,
    env: Dict[str, np.ndarray],
    machine: Optional[DistributedMachine] = None,
    model=None,
) -> DistributedMachine:
    """Place *env*, run the overlapped node programs, return the machine."""
    if ir.clause.ordering is not Ordering.PAR:
        raise ValueError("the overlap executor handles // clauses")
    if ir.write.replicated:
        raise ValueError("replicated writes keep the scalar path")
    return _run_nodes(ir, env, machine, model,
                      lambda ctx: make_overlap_node_program(ir, ctx))
