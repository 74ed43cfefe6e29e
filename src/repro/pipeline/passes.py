"""The named rewrite passes.

The §2.6-2.7 derivation is a sequence of rewrites; this module makes each
one an explicit, introspectable pass over :class:`~repro.pipeline.ir.PlanIR`:

``substitute-views``      decomposition substitution + contraction (Eq. 2):
                          every array reference becomes a placed access
                          ``[proc(f(i)), local(f(i))]`` with per-axis
                          decomposition/function pairs.
``optimize-membership``   Table I rule selection per axis (§3): each axis
                          gets its closed-form membership enumerator.
``eliminate-barriers``    §2.9 post-phase barrier removal: the barrier
                          after this clause is dropped when no processor's
                          reads in the successor overlap another's writes.
``recognize-reduction``   the §2.6 remark on associative ``•`` clauses:
                          detect accumulator recurrences that run as
                          local-partials + combine.
``license-doacross``      structural legality of the paper's "more
                          complicated orderings": a ``•`` clause whose only
                          loop-carried reads are constant-distance
                          recurrences may run as a paced DOACROSS.
``verify-plan``           (optional, ``compile_plan(..., verify=True)``)
                          the :mod:`repro.analysis` static verifier:
                          races, communication completeness, bounds and
                          decomposition lint over the membership keys.

Passes only *record* facts on the IR; the machine templates, the source
emitter and the kernel tiers consume them.  Passes import
codegen helpers lazily so the pipeline stays importable from anywhere in
the package without cycles.
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.clause import Ordering
from ..core.ifunc import AffineF
from ..decomp.multidim import GridDecomposition
from ..sets.table1 import optimize_access
from .ir import AccessIR, AxisAccess, InteriorSplit, NodeSplit, PlanIR, \
    access_spec
from .region import klen, meet

__all__ = [
    "Pass",
    "SubstituteViews",
    "OptimizeMembership",
    "SplitInterior",
    "EliminateBarriers",
    "RecognizeReduction",
    "LicenseDoacross",
    "VerifyPlan",
    "LowerKernels",
    "default_passes",
]

PassResult = Tuple[int, List[str]]


class Pass:
    """A named rewrite over the Plan IR."""

    name: str = "?"
    paper: str = ""

    def run(self, ir: PlanIR) -> PassResult:  # pragma: no cover - interface
        raise NotImplementedError


def _make_access(ref, pos, dec, clause) -> AccessIR:
    try:
        dims, funcs = access_spec(ref.imap)
    except ValueError:
        dims, funcs = (), ()
    axes: List[AxisAccess] = []
    if dec is not None and funcs:
        if isinstance(dec, GridDecomposition):
            if dec.ndim == len(funcs):
                axes = [
                    AxisAccess(d, f, dims[k])
                    for k, (d, f) in enumerate(zip(dec.dims, funcs))
                ]
        elif len(funcs) == 1:
            axes = [AxisAccess(dec, funcs[0], dims[0])]
    return AccessIR(ref=ref, name=ref.name, dec=dec, dims=dims, funcs=funcs,
                    axes=axes, pos=pos)


class SubstituteViews(Pass):
    """Decomposition substitution + contraction (Eq. 2): rewrite every
    array reference into its placed ``(proc, local)`` form."""

    name = "substitute-views"
    paper = "§2.6 Eq. 2"

    def run(self, ir: PlanIR) -> PassResult:
        clause = ir.clause
        bounds = clause.domain.bounds
        ir.loop_bounds = list(zip(bounds.lower, bounds.upper))

        notes: List[str] = []
        rewrites = 0

        ir.write = _make_access(clause.lhs, None, ir.decomps[clause.lhs.name],
                                clause)
        ir.pmax = ir.write.dec.pmax
        rewrites += 1
        notes.append(f"{clause.lhs.name} -> (proc_{clause.lhs.name}, "
                     f"local_{clause.lhs.name}) under {ir.write.dec!r}")

        for pos, ref in enumerate(clause.reads()):
            dec = ir.decomps.get(ref.name)
            if dec is None and ir.require_read_decomps:
                raise KeyError(ref.name)
            acc = _make_access(ref, pos, dec, clause)
            ir.reads.append(acc)
            if dec is not None:
                rewrites += 1
                notes.append(f"read{pos}:{ref.name} -> (proc, local) "
                             f"under {dec!r}")
            else:
                notes.append(f"read{pos}:{ref.name} left in global view "
                             "(shared-memory addressing)")

        # The executable derivation chain produces the same records: reuse
        # its pretty forms as the notes for the 1-D // case.
        if ir.ndim == 1 and clause.ordering is Ordering.PAR:
            try:
                from ..core.rewrite import derivation_forms

                for rule, form in derivation_forms(clause, ir.decomps):
                    notes.append(f"[{rule}] {form}")
            except (KeyError, ValueError):
                pass
        return rewrites, notes


class OptimizeMembership(Pass):
    """Table I rule selection (§3): pick the closed-form enumerator for
    every placed axis.  A rewrite is counted whenever the selection beats
    the naive full-range scan."""

    name = "optimize-membership"
    paper = "§3 / Table I"

    def run(self, ir: PlanIR) -> PassResult:
        notes: List[str] = []
        rewrites = 0
        ir._keys = {}
        for acc in ir.accesses():
            for k, ax in enumerate(acc.axes):
                lo, hi = ir.loop_bounds[ax.loop_dim]
                ax.access = optimize_access(ax.dec, ax.func, lo, hi)
                suffix = f":dim{k}" if len(acc.axes) > 1 else ""
                notes.append(
                    f"{acc.label}:{acc.name}{suffix} -> {ax.access.rule}")
                if not ax.access.rule.startswith("naive"):
                    rewrites += 1
        return rewrites, notes


class SplitInterior(Pass):
    """Partition each node's ``Modify_p`` into *interior* (every
    non-replicated read already locally resident — computable while
    messages are in flight) and a *boundary* remainder (needs remote
    values), in the key algebra of :mod:`repro.pipeline.region` on the
    plan's membership keys (:meth:`PlanIR.member_keys`).

    Because every access factorizes per loop dimension, so does the
    interior:

        ``interior_d(p) = write_d(p) ∩ (∩ over reads covering d of
        resident_d(p))``

    — one :func:`~repro.pipeline.region.meet` per (read, node, dim),
    O(1) for a pair of progressions — and ``interior(p) = ∏_d
    interior_d(p)`` while ``boundary(p) = Modify_p − interior(p)``
    (which does not factorize; `lower-kernels` tiles it with at most
    ``2*ndim`` strips).  The pass only records keys on the IR — the
    distributed kernels consume them; the scalar templates ignore
    them."""

    name = "split-interior"
    paper = "§5 overlap (future work)"

    def run(self, ir: PlanIR) -> PassResult:
        ir.interior_split = None
        skip = self._inapplicable(ir)
        if skip is not None:
            return 0, [f"skipped: {skip}"]

        nodes = range(ir.pmax)
        lanes = ir.member_keys(ir.write)
        interior = [list(lanes[p]) for p in nodes]
        for acc in ir.reads:
            if acc.replicated:
                continue
            resident = ir.member_keys(acc)
            for p in nodes:
                for ax in acc.axes:
                    d = ax.loop_dim
                    interior[p][d] = meet(interior[p][d], resident[p][d])
        split = ir.interior_split = InteriorSplit(
            {p: NodeSplit(modify=lanes[p], interior=interior[p])
             for p in nodes})

        m, i, b = split.totals()
        notes = []
        for d in range(ir.ndim):
            mod_d = sum(klen(lanes[p][d]) for p in nodes)
            int_d = sum(klen(interior[p][d]) for p in nodes)
            notes.append(f"axis dim{d}: interior {int_d}/{mod_d} index "
                         f"points, boundary {mod_d - int_d} "
                         f"(summed over {ir.pmax} nodes)")
        notes.append(f"total elements: interior={i} boundary={b} "
                     f"of modify={m}")
        return (1 if i > 0 else 0), notes

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _inapplicable(ir: PlanIR) -> "str | None":
        """Reason the split cannot be computed, or None if it can."""
        if ir.clause.ordering is not Ordering.PAR:
            return "sequential (•) clause: phase order is fixed"
        w = ir.write
        if w is None or not w.placed:
            return "write access is unplaced"
        if w.replicated:
            return "replicated write: every node computes all of Modify"
        if not w.axes or any(ax.access is None for ax in w.axes):
            return "write has no optimized per-axis enumerators"
        covered = sorted(ax.loop_dim for ax in w.axes)
        if covered != list(range(ir.ndim)):
            return "write does not cover every loop dimension"
        for acc in ir.reads:
            if acc.replicated:
                continue
            if not acc.placed:
                return f"{acc.label}:{acc.name} is unplaced"
            if not acc.axes or any(ax.access is None for ax in acc.axes):
                return (f"{acc.label}:{acc.name} has no optimized "
                        "per-axis enumerators")
        return None


class EliminateBarriers(Pass):
    """§2.9: drop the post-phase barrier when no processor's reads in the
    successor clause can observe another processor's writes from this
    one — proven on the membership keys of this plan and of a front-only
    IR of the successor (:mod:`repro.codegen.barriers`); nothing is
    compiled, lowered or cached on the way."""

    name = "eliminate-barriers"
    paper = "§2.9"

    def run(self, ir: PlanIR) -> PassResult:
        if ir.successor is None:
            return 0, ["no successor clause: barrier kept"]
        if ir.ndim != 1 or ir.successor.domain.dim != 1:
            return 0, ["barrier analysis implemented for 1-D clauses: kept"]
        from ..codegen.barriers import plan_barrier_removable

        try:
            removable = plan_barrier_removable(ir)
        except (KeyError, ValueError) as exc:
            return 0, [f"analysis unavailable ({exc}); barrier kept"]
        ir.barrier_needed = not removable
        if removable:
            return 1, [f"barrier before {ir.successor.name!r} eliminated: "
                       "no cross-processor write/read overlap"]
        return 0, [f"barrier before {ir.successor.name!r} kept"]


class RecognizeReduction(Pass):
    """Detect associative accumulator recurrences in ``•`` clauses (the
    §2.6 remark): these run as local partials + logarithmic combine
    instead of a serialized chain."""

    name = "recognize-reduction"
    paper = "§2.6 remark"

    def run(self, ir: PlanIR) -> PassResult:
        if ir.clause.ordering is not Ordering.SEQ or ir.ndim != 1:
            return 0, []
        from ..codegen.idioms import recognize_reduction

        ir.reduction = recognize_reduction(ir.clause)
        if ir.reduction is None:
            return 0, ["no accumulator recurrence recognized"]
        red = ir.reduction
        return 1, [f"reduction over {red.op!r} into "
                   f"{ir.clause.lhs.name}[{red.slot}]"]


class LicenseDoacross(Pass):
    """Structural legality of a paced DOACROSS schedule for ``•`` clauses
    whose loop-carried reads are constant-distance recurrences."""

    name = "license-doacross"
    paper = "§2.6 orderings"

    def run(self, ir: PlanIR) -> PassResult:
        ir.doacross_distances = {}
        clause = ir.clause
        if clause.ordering is not Ordering.SEQ or ir.ndim != 1:
            return 0, []
        if ir.reduction is not None:
            return 0, ["clause runs as a reduction: doacross not needed"]
        if ir.write is None or ir.write.replicated:
            return 0, ["replicated write: doacross not licensed"]
        wf = ir.write.funcs[0] if ir.write.funcs else None
        if not (isinstance(wf, AffineF) and wf.a == 1 and wf.c == 0):
            return 0, ["write access is not the identity: not licensed"]
        if clause.guard is not None and any(
            r.name == clause.lhs.name for r in clause.guard.refs()
        ):
            return 0, ["guard reads the written array: not licensed"]
        distances = {}
        for pos, ref in enumerate(clause.reads()):
            if ref.name != clause.lhs.name:
                continue
            try:
                g = ref.scalar_func()
            except ValueError:
                return 0, [f"read{pos} of {ref.name!r} is not 1-D separable"]
            if isinstance(g, AffineF) and g.a == 1 and g.c <= -1:
                distances[pos] = -g.c
            else:
                return 0, [f"read{pos} of the written array is not a "
                           "constant-distance recurrence: not licensed"]
        if not distances:
            return 0, ["no loop-carried recurrence read: nothing to pace"]
        ir.doacross_distances = distances
        return 1, [f"doacross licensed with distances {distances}"]


class VerifyPlan(Pass):
    """The optional static verifier (:mod:`repro.analysis`): Bernstein
    races, communication completeness, bounds, and decomposition lint —
    all closed-form over the membership keys, §3's decidability claim
    turned into diagnostics.  Findings land on ``ir.diagnostics`` and on
    the trace (``compile --explain`` shows them; ``repro check`` prints
    them)."""

    name = "verify-plan"
    paper = "§3 (membership sets decidable at compile time)"

    def run(self, ir: PlanIR) -> PassResult:
        from ..analysis import verify_ir

        report = verify_ir(ir)
        if not report.diagnostics:
            return 0, ["clause verified: no findings"]
        return (len(report.diagnostics),
                [d.headline() for d in report.diagnostics])


class LowerKernels(Pass):
    """Lower the plan to compile-once fused node kernels (§4's generated
    programs, specialized all the way): the clause body becomes one
    generated NumPy expression attached to ``ir.kernels``; the template a
    run executes is resolved into regions on its first use.  Plans with
    no fused form (sequential clauses, unrenderable expressions) keep
    the scalar templates; the reason lands on the trace."""

    name = "lower-kernels"
    paper = "§4 (compile-time specialization of generated programs)"

    def run(self, ir: PlanIR) -> PassResult:
        from .kernels import attach_kernels

        notes = attach_kernels(ir)
        return (1 if ir.kernels is not None else 0), notes


def default_passes(verify: bool = False) -> List[Pass]:
    """The standard pipeline, in order.  *verify* inserts the optional
    ``verify-plan`` static-analysis pass before kernel lowering."""
    passes: List[Pass] = [
        SubstituteViews(),
        OptimizeMembership(),
        SplitInterior(),
        EliminateBarriers(),
        RecognizeReduction(),
        LicenseDoacross(),
    ]
    if verify:
        passes.append(VerifyPlan())
    passes.append(LowerKernels())
    return passes
