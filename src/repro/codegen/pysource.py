"""Emission of real Python node-program source (the paper's "automatic
parallel program generation").

The emitted text mirrors the paper's pseudo-code templates (Sections
2.9-2.10, 4): one SPMD program parameterized by ``p = my_node``, loop
bounds produced by the Table I generation functions, placement functions
inlined as arithmetic.  The source is compiled with :func:`compile` and
executed on the simulated machines — tests cross-check it element-for-
element against the interpreter templates.

Loop segments are computed *at node start-up* by the closed-form
enumerators (``RT.segments``), matching Section 4's observation that each
processor best computes its own ``gcd``/``C(a, pmax)``-derived constants
at run time; there is no full-range membership scan anywhere in the
generated code.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ..core.expr import Ref
from ..pipeline.ir import PlanIR
from ..pipeline.region import prog, vec
from .exprsrc import (
    CodegenError,
    expr_src,
    ifunc_src,
    local_src,
    proc_src,
    vexpr_src,
)
from .gensrc import SUPPORT_HELPERS, VECTOR_HELPERS, segments_source

__all__ = ["RuntimeTables", "emit_distributed_source", "emit_shared_source",
           "compile_distributed", "compile_shared"]


def _require_1d(plan: PlanIR) -> None:
    """The emitter is the paper's canonical 1-D form: one loop index
    ``i``, one access function per array."""
    rank = max([plan.ndim] + [len(acc.funcs) for acc in plan.accesses()])
    if rank != 1:
        raise CodegenError(
            f"node-program source is emitted for 1-D clauses only; this "
            f"plan has rank {rank} (run it with run_shared/run_distributed)")


class RuntimeTables:
    """Per-plan runtime support the generated code receives as ``RT``.

    ``segments(key, p)`` evaluates the Table I generation function for one
    access on processor *p* — closed-form work proportional to the number
    of segments, never to the loop range.
    """

    def __init__(self, plan: PlanIR):
        self.plan = plan
        self._acc = {acc.label: acc.axes[0].access
                     for acc in plan.accesses() if acc.axes}

    def segments(self, key: str, p: int) -> List[Tuple[int, int, int]]:
        if key == "write" and self.plan.write.replicated:
            imin, imax = self.plan.loop_bounds[0]
            return [(imin, imax, 1)]
        enum = self._acc[key].enumerate(p)
        return [(s.lo, s.hi, s.step) for s in enum.segments]

    def rule(self, key: str) -> str:
        return self._acc[key].rule

    def interior_index(self, p: int):
        """Sorted int64 vector of node *p*'s interior loop indices (the
        `split-interior` pass product; empty when the plan has no split —
        the overlap program then degrades to the vector schedule)."""
        split = self.plan.interior_split
        ns = split.per_node.get(p) if split is not None else None
        return vec(prog(0, 1, 0) if ns is None else ns.interior[0])


# ---------------------------------------------------------------------------
# pieces every variant states the same way
# ---------------------------------------------------------------------------

def _temp(read) -> str:
    """Distributed memory: a reference is its pre-fetched value slot."""
    return f"v{read.pos}"


def _render_refs(plan: PlanIR, text: Callable) -> Callable[[Ref], str]:
    """Expression-source renderer: each Ref node (by identity) becomes
    ``text(its read access)``."""
    by_id = {id(read.ref): text(read) for read in plan.reads}
    return lambda ref: by_id[id(ref)]


def _global_load(read) -> str:
    """Shared memory: a reference is a direct global load."""
    return f"env[{read.name!r}][{ifunc_src(read.funcs[0])}]"


def _write_segments(plan: PlanIR) -> List[str]:
    """Source lines binding ``segs_w`` to ``Modify_p``'s segments."""
    if plan.write.replicated:
        imin, imax = plan.loop_bounds[0]
        return [f"segs_w = [({imin}, {imax}, 1)]  # replicated write"]
    return segments_source(plan.write.axes[0].access, "segs_w", "write")


def _open_node_program(plan: PlanIR, kind: str = "") -> List[str]:
    """What every distributed variant starts with: the comment header,
    the local-buffer bindings and the Table I membership segments."""
    for acc in plan.accesses():
        if not acc.placed:
            raise CodegenError(
                f"array {acc.name!r} has no decomposition: nothing to "
                "address its local memory with")
    lines: List[str] = []
    w = lines.append
    w(f"def node_program(ctx, RT):")
    w(f"    # {kind}SPMD node program generated from clause "
      f"{plan.clause.name!r}")
    for acc in plan.accesses():
        w(f"    # {acc.label}: {acc.name}[{acc.funcs[0].name}] "
          f"under {acc.dec!r}  [rule {acc.axes[0].rule}]")
    w(f"    p = ctx.p")
    for name in sorted({acc.name for acc in plan.accesses()}):
        w(f"    {name}_loc = ctx.mem[{name!r}]")
    w("")
    w(f"    # membership segments (Table I generation functions)")
    for read in plan.reads:
        if read.replicated:
            continue
        for line in segments_source(read.axes[0].access,
                                    f"segs_r{read.pos}", read.label):
            w(f"    {line}")
    for line in _write_segments(plan):
        w(f"    {line}")
    w("")
    return lines


def _batched_send_phase(plan: PlanIR, w: Callable[[str], None]) -> None:
    """The vector/overlap send phase: each (read, peer) transfer is a
    single value-vector message tagged ``("vec", pos)`` — positions are
    reconstructed from the shared lexicographic enumeration order, never
    shipped."""
    f_of_i = ifunc_src(plan.write.funcs[0])
    for read in plan.reads:
        if read.replicated:
            w(f"    # read{read.pos} ({read.name}) is replicated: no sends")
            continue
        g_src = ifunc_src(read.funcs[0])
        w(f"    # send phase for read{read.pos}: one value vector per "
          f"destination writer")
        w(f"    i = _vec_index(segs_r{read.pos})")
        w(f"    if i.size:")
        w(f"        ctx.stats.iterations += int(i.size)")
        w(f"        q = _vec_full({proc_src(plan.write.dec, f_of_i)}, "
          f"i.size, _np.int64)")
        w(f"        vals = _vec_full({read.name}_loc"
          f"[{local_src(read.dec, g_src)}], i.size, _np.float64)")
        w(f"        for dest in _np.unique(q):")
        w(f"            if int(dest) != p:")
        w(f"                ctx.send(int(dest), ('vec', {read.pos}), "
          f"_np.ascontiguousarray(vals[q == dest]))")
        w("")


def _no_replicated_write(plan: PlanIR) -> None:
    if plan.write.replicated:
        raise CodegenError(
            "replicated write: per-copy broadcast keeps the scalar template"
        )


# ---------------------------------------------------------------------------
# distributed memory (§2.10)
# ---------------------------------------------------------------------------

def emit_distributed_source(plan: PlanIR, backend: str = "scalar") -> str:
    """Source of the distributed-memory node program for *plan*.

    ``backend="vector"`` emits the batched NumPy variant (one message per
    (read, peer) pair); ``backend="overlap"`` emits the split-interior
    variant (non-blocking receives, interior computed while messages are
    in flight).  Raises :class:`CodegenError` where only the scalar
    template applies (replicated writes, opaque index functions) and for
    plans of rank > 1 (the emitter is 1-D).
    """
    if backend not in ("scalar", "vector", "overlap"):
        raise ValueError(f"unknown backend {backend!r}")
    _require_1d(plan)
    if backend == "vector":
        return _emit_distributed_vector(plan)
    if backend == "overlap":
        return _emit_distributed_overlap(plan)
    c = plan.clause
    write = plan.write
    lines = _open_node_program(plan)
    w = lines.append
    f_src = ifunc_src(write.funcs[0])

    # ---- send phase -----------------------------------------------------
    for read in plan.reads:
        if read.replicated:
            w(f"    # read{read.pos} ({read.name}) is replicated: no sends")
            continue
        g_src = ifunc_src(read.funcs[0])
        load = f"{read.name}_loc[{local_src(read.dec, g_src)}]"
        w(f"    # send phase for read{read.pos}: elements resident here,")
        w(f"    # needed by the writer of {plan.write_name}[f(i)]")
        w(f"    for lo, hi, st in segs_r{read.pos}:")
        w(f"        for i in range(lo, hi + 1, st):")
        if write.replicated:
            w(f"            for q in range({plan.pmax}):")
            w(f"                if q != p:")
            w(f"                    ctx.send(q, ({read.pos}, i), {load})")
        else:
            w(f"            q = {proc_src(write.dec, f_src)}")
            w(f"            if q != p:")
            w(f"                ctx.send(q, ({read.pos}, i), {load})")
        w("")

    # ---- update phase -----------------------------------------------------
    render = _render_refs(plan, _temp)
    w(f"    # update phase: i in Modify_p; writes buffered until the loop")
    w(f"    # ends so no iteration observes another's write (// premise)")
    w(f"    pending = []")
    w(f"    for lo, hi, st in segs_w:")
    w(f"        for i in range(lo, hi + 1, st):")
    for read in plan.reads:
        g_src = ifunc_src(read.funcs[0])
        load = f"{read.name}_loc[{local_src(read.dec, g_src)}]"
        if read.replicated:
            w(f"            {_temp(read)} = {load}")
        else:
            w(f"            src{read.pos} = {proc_src(read.dec, g_src)}")
            w(f"            if src{read.pos} == p:")
            w(f"                {_temp(read)} = {load}")
            w(f"            else:")
            w(f"                {_temp(read)} = ctx.note_received(")
            w(f"                    (yield ctx.recv(src{read.pos}, ({read.pos}, i))))")
    indent = "            "
    if c.guard is not None:
        w(f"{indent}if not ({expr_src(c.guard, render)}):")
        w(f"{indent}    continue")
    slot = f_src if write.replicated else local_src(write.dec, f_src)
    w(f"{indent}pending.append(({slot}, {expr_src(c.rhs, render)}))")
    w(f"    for slot, value in pending:")
    w(f"        ctx.update({plan.write_name!r}, slot, value)")
    w("")
    w(f"    yield ctx.barrier()")
    return "\n".join(lines) + "\n"


def _emit_distributed_vector(plan: PlanIR) -> str:
    """Vector variant of the §2.10 node program: memberships become sorted
    strided index vectors, placement arithmetic broadcasts over them, and
    each (read, peer) transfer is a single value-vector message."""
    c = plan.clause
    _no_replicated_write(plan)
    lines = _open_node_program(plan, "vectorized ")
    w = lines.append
    _batched_send_phase(plan, w)
    temp = _render_refs(plan, _temp)

    w(f"    # update phase: Modify_p as one index vector, reads assembled")
    w(f"    # from local gathers plus one receive per source")
    w(f"    i = _vec_index(segs_w)")
    w(f"    ctx.stats.iterations += int(i.size)")
    w(f"    if i.size:")
    w(f"        n = int(i.size)")
    for read in plan.reads:
        g_src = ifunc_src(read.funcs[0])
        v = _temp(read)
        if read.replicated:
            w(f"        {v} = _vec_full({read.name}_loc"
              f"[{local_src(read.dec, g_src)}], n, _np.float64)")
            continue
        w(f"        src{read.pos} = _vec_full("
          f"{proc_src(read.dec, g_src)}, n, _np.int64)")
        w(f"        {v} = _vec_gather({read.name}_loc, _vec_full("
          f"{local_src(read.dec, g_src)}, n, _np.int64))")
        w(f"        for s in _np.unique(src{read.pos}[src{read.pos} != p]):")
        w(f"            {v}[src{read.pos} == s] = _np.asarray(")
        w(f"                ctx.note_received((yield ctx.recv(int(s), "
          f"('vec', {read.pos})))), dtype=_np.float64)")
    slot = local_src(plan.write.dec, ifunc_src(plan.write.funcs[0]))
    w(f"        slot = _vec_full({slot}, n, _np.int64)")
    w(f"        value = _vec_full({vexpr_src(c.rhs, temp)}, n, _np.float64)")
    if c.guard is not None:
        w(f"        keep = _np.broadcast_to(_np.asarray("
          f"{vexpr_src(c.guard, temp)}, dtype=bool), (n,))")
        w(f"        slot, value = slot[keep], value[keep]")
    w(f"        {plan.write_name}_loc[slot] = value")
    w(f"        ctx.stats.local_updates += int(value.size)")
    w("")
    w(f"    yield ctx.barrier()")
    return "\n".join(lines) + "\n"


def _emit_distributed_overlap(plan: PlanIR) -> str:
    """Overlapped variant of the §2.10 node program.

    Same batched messages as the vector variant, but receives are
    *posted* (``ctx.irecv``) instead of awaited: the interior of
    ``Modify_p`` — lanes whose reads are all locally resident, from the
    `split-interior` pass via ``RT.interior_index(p)`` — is computed and
    committed while messages are in flight, then the receives are
    drained with ``ctx.probe`` and the boundary remainder finishes.
    Local gathers happen before any commit, so a read of the written
    array still observes pre-state; element-wise evaluation over lane
    subsets keeps the result bit-identical to the other backends."""
    c = plan.clause
    _no_replicated_write(plan)
    lines = _open_node_program(plan, "overlapped ")
    w = lines.append
    _batched_send_phase(plan, w)
    temp = _render_refs(plan, _temp)

    w(f"    # update phase: gather local reads (pre-state), post the")
    w(f"    # receives, compute the interior while messages are in flight,")
    w(f"    # drain, finish the boundary")
    w(f"    i = _vec_index(segs_w)")
    w(f"    ctx.stats.iterations += int(i.size)")
    w(f"    if i.size:")
    w(f"        n = int(i.size)")
    w(f"        _pending = []")
    for read in plan.reads:
        g_src = ifunc_src(read.funcs[0])
        v = _temp(read)
        if read.replicated:
            w(f"        {v} = _vec_full({read.name}_loc"
              f"[{local_src(read.dec, g_src)}], n, _np.float64)")
            continue
        w(f"        src{read.pos} = _vec_full("
          f"{proc_src(read.dec, g_src)}, n, _np.int64)")
        w(f"        {v} = _vec_gather({read.name}_loc, _vec_full("
          f"{local_src(read.dec, g_src)}, n, _np.int64))")
        w(f"        for s in _np.unique(src{read.pos}[src{read.pos} != p]):")
        w(f"            _h = yield ctx.irecv(int(s), ('vec', {read.pos}))")
        w(f"            _pending.append((_h, {v}, "
          f"src{read.pos} == int(s)))")
    slot = local_src(plan.write.dec, ifunc_src(plan.write.funcs[0]))
    w(f"        slot = _vec_full({slot}, n, _np.int64)")
    w(f"        _interior = _np.isin(i, RT.interior_index(p))")
    w(f"        for _lanes in (_interior, ~_interior):")
    w(f"            ctx.charge_elements(int(_np.count_nonzero(_lanes)))")
    w(f"            if _lanes.any():")
    w(f"                value = _vec_full({vexpr_src(c.rhs, temp)}, "
      f"n, _np.float64)")
    if c.guard is not None:
        w(f"                _lanes = _lanes & _np.broadcast_to(_np.asarray("
          f"{vexpr_src(c.guard, temp)}, dtype=bool), (n,))")
    w(f"                {plan.write_name}_loc[slot[_lanes]] = value[_lanes]")
    w(f"                ctx.stats.local_updates += "
      f"int(_np.count_nonzero(_lanes))")
    w(f"            if _pending is not None:")
    w(f"                # drain the posted receives before the boundary")
    w(f"                while _pending:")
    w(f"                    _done = yield ctx.probe("
      f"[h for h, _, _ in _pending])")
    w(f"                    for _k, (_h, _t, _m) in enumerate(_pending):")
    w(f"                        if _h is _done:")
    w(f"                            _t[_m] = _np.asarray(ctx.note_received(")
    w(f"                                _done.payload), dtype=_np.float64)")
    w(f"                            del _pending[_k]")
    w(f"                            break")
    w(f"                _pending = None")
    w("")
    w(f"    yield ctx.barrier()")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# shared memory (§2.9)
# ---------------------------------------------------------------------------

def _emit_shared_vector(plan: PlanIR) -> str:
    """Vector variant of the §2.9 phase: the whole ``Modify_p`` walk
    becomes one gather / evaluate / fancy-store batch; the returned write
    buffer holds a single ``(name, index_vector, value_vector)`` entry."""
    c = plan.clause
    render = _render_refs(plan, _global_load)
    lines: List[str] = []
    w = lines.append
    w(f"def node_phase(p, env, RT):")
    w(f"    # vectorized shared-memory SPMD phase for clause {c.name!r}")
    w(f"    # forall i in Modify_p, as one strided-gather batch")
    for line in _write_segments(plan):
        w(f"    {line}")
    w(f"    i = _vec_index(segs_w)")
    if c.guard is not None:
        w(f"    if i.size:")
        w(f"        keep = _np.broadcast_to(_np.asarray("
          f"{vexpr_src(c.guard, render)}, dtype=bool), i.shape)")
        w(f"        i = i[keep]")
    w(f"    if i.size == 0:")
    w(f"        return []")
    w(f"    value = _vec_full({vexpr_src(c.rhs, render)}, "
      f"int(i.size), _np.float64)")
    w(f"    return [({plan.write_name!r}, "
      f"{ifunc_src(plan.write.funcs[0])}, value)]")
    return "\n".join(lines) + "\n"


def emit_shared_source(plan: PlanIR, backend: str = "scalar") -> str:
    """Source of the shared-memory phase function (Section 2.9 template).

    ``backend="vector"`` emits the batched NumPy variant; its write
    buffer holds index/value *vectors* instead of per-element tuples.
    Raises :class:`CodegenError` for plans of rank > 1.
    """
    if backend not in ("scalar", "vector"):
        raise ValueError(f"unknown backend {backend!r}")
    _require_1d(plan)
    if backend == "vector":
        return _emit_shared_vector(plan)
    c = plan.clause
    render = _render_refs(plan, _global_load)
    lines: List[str] = []
    w = lines.append
    w(f"def node_phase(p, env, RT):")
    w(f"    # shared-memory SPMD phase generated from clause {c.name!r}")
    w(f"    # forall i in Modify_p do {plan.write_name}[f(i)] := Expr(...) od")
    for line in _write_segments(plan):
        w(f"    {line}")
    w(f"    writes = []")
    w(f"    for lo, hi, st in segs_w:")
    w(f"        for i in range(lo, hi + 1, st):")
    indent = "            "
    if c.guard is not None:
        w(f"{indent}if not ({expr_src(c.guard, render)}):")
        w(f"{indent}    continue")
    w(f"{indent}writes.append(({plan.write_name!r}, "
      f"{ifunc_src(plan.write.funcs[0])}, {expr_src(c.rhs, render)}))")
    w(f"    return writes")
    return "\n".join(lines) + "\n"


def _exec_source(source: str, entry: str, helpers: str = SUPPORT_HELPERS):
    namespace: Dict[str, object] = {}
    full = helpers + "\n\n" + source
    code = compile(full, f"<generated {entry}>", "exec")
    exec(code, namespace)  # noqa: S102 - generated by us, from our own AST
    return namespace[entry]


def compile_distributed(plan: PlanIR, backend: str = "scalar"):
    """Emit + compile the distributed node program.

    Returns ``(source, factory)`` where ``factory(ctx)`` yields a node
    generator (the RT tables are bound in).  ``backend="vector"`` and
    ``backend="overlap"`` fall back to the scalar template when no
    batched form exists (replicated writes, opaque index functions) —
    recorded as a note on the plan's trace.
    """
    helpers = SUPPORT_HELPERS
    if backend in ("vector", "overlap"):
        try:
            source = emit_distributed_source(plan, backend=backend)
            helpers = SUPPORT_HELPERS + "\n\n" + VECTOR_HELPERS
        except CodegenError as exc:
            source = emit_distributed_source(plan)
            plan.trace.note(f"emitted source for backend={backend!r} fell "
                            f"back to the scalar template: {exc}")
    else:
        source = emit_distributed_source(plan, backend=backend)
    fn = _exec_source(source, "node_program", helpers)
    rt = RuntimeTables(plan)
    return source, (lambda ctx: fn(ctx, rt))


def compile_shared(plan: PlanIR, backend: str = "scalar"):
    """Emit + compile the shared-memory phase function.

    Returns ``(source, phase)`` where ``phase(p, env)`` gives the write
    buffer for node *p* (index/value vectors under ``backend="vector"``;
    ``backend="overlap"`` has no shared-memory meaning and aliases the
    vector form).
    """
    helpers = SUPPORT_HELPERS
    if backend == "overlap":
        plan.trace.note("backend='overlap' on shared memory: no messages "
                        "to overlap; emitting the vector phase")
        backend = "vector"
    if backend == "vector":
        try:
            source = emit_shared_source(plan, backend="vector")
            helpers = SUPPORT_HELPERS + "\n\n" + VECTOR_HELPERS
        except CodegenError as exc:
            source = emit_shared_source(plan)
            plan.trace.note("emitted source for backend='vector' fell "
                            f"back to the scalar template: {exc}")
    else:
        source = emit_shared_source(plan, backend=backend)
    fn = _exec_source(source, "node_phase", helpers)
    rt = RuntimeTables(plan)
    return source, (lambda p, env: fn(p, env, rt))
