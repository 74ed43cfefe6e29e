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
from .exprsrc import CodegenError, expr_src, ifunc_src, local_src, proc_src
from .gensrc import SUPPORT_HELPERS, segments_source

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


# ---------------------------------------------------------------------------
# pieces both templates state the same way
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


def _open_node_program(plan: PlanIR) -> List[str]:
    """How the distributed node program starts: the comment header, the
    local-buffer bindings and the Table I membership segments."""
    for acc in plan.accesses():
        if not acc.placed:
            raise CodegenError(
                f"array {acc.name!r} has no decomposition: nothing to "
                "address its local memory with")
    lines: List[str] = []
    w = lines.append
    w(f"def node_program(ctx, RT):")
    w(f"    # SPMD node program generated from clause "
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


# ---------------------------------------------------------------------------
# distributed memory (§2.10)
# ---------------------------------------------------------------------------

def emit_distributed_source(plan: PlanIR) -> str:
    """Source of the distributed-memory node program for *plan* (Section
    2.10 template).  Raises :class:`CodegenError` for an access function
    with no closed-form source, an unplaced array, and plans of rank > 1
    (the emitter is 1-D).
    """
    _require_1d(plan)
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


# ---------------------------------------------------------------------------
# shared memory (§2.9)
# ---------------------------------------------------------------------------

def emit_shared_source(plan: PlanIR) -> str:
    """Source of the shared-memory phase function (Section 2.9 template).
    Raises :class:`CodegenError` for plans of rank > 1.
    """
    _require_1d(plan)
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


def _exec_source(source: str, entry: str):
    namespace: Dict[str, object] = {}
    full = SUPPORT_HELPERS + "\n\n" + source
    code = compile(full, f"<generated {entry}>", "exec")
    exec(code, namespace)  # noqa: S102 - generated by us, from our own AST
    return namespace[entry]


def compile_distributed(plan: PlanIR):
    """Emit + compile the distributed node program.

    Returns ``(source, factory)`` where ``factory(ctx)`` yields a node
    generator (the RT tables are bound in).
    """
    source = emit_distributed_source(plan)
    fn = _exec_source(source, "node_program")
    rt = RuntimeTables(plan)
    return source, (lambda ctx: fn(ctx, rt))


def compile_shared(plan: PlanIR):
    """Emit + compile the shared-memory phase function.

    Returns ``(source, phase)`` where ``phase(p, env)`` gives the write
    buffer for node *p*.
    """
    source = emit_shared_source(plan)
    fn = _exec_source(source, "node_phase")
    rt = RuntimeTables(plan)
    return source, (lambda p, env: fn(p, env, rt))
