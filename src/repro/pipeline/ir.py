"""The unified Plan IR.

One intermediate representation covers the paper's canonical 1-D clause
*and* the d-dimensional grid lifting: a 1-D clause is simply the
degenerate one-axis grid.  Each array access is an :class:`AccessIR`
whose per-axis placement (:class:`AxisAccess`) pairs a 1-D decomposition
with the index function feeding it; the `optimize-membership` pass fills
in the per-axis Table I enumerator.

The IR is what the passes of :mod:`repro.pipeline.passes` transform and
what every consumer reads: ``compile_clause``, ``compile_clause_nd`` and
``compile_clause_nd_dist`` are contract checks over ``compile_plan`` and
return the :class:`PlanIR` itself; the §2.9/§2.10 scalar templates, the
source emitter and the kernel tiers all take it at any rank.
"""

# Spellings kept only because the frozen benchmark ledger
# (``benchmarks/ledger/``) uses them — not API to grow:
# ``plan.ir`` (:attr:`PlanIR.ir` returns the plan), ``step.plan()``
# (``ProgramStep.plan`` returns ``step.ir``), and the names
# ``compile_clause_nd_dist``, ``run_distributed_nd``, ``collect_nd``
# (:mod:`repro.codegen.nddist`: the first a contract check, the other
# two ``run_distributed`` and ``machine.collect``).

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from ..core.clause import Clause
from ..core.expr import Ref
from ..core.view import ProjectedMap, SeparableMap
from ..decomp.multidim import GridDecomposition
from .region import Key, image, klen, meet, prog
from .trace import PipelineTrace

__all__ = ["AxisAccess", "AccessIR", "Footprint", "NodeSplit",
           "InteriorSplit", "PlanIR", "PlanFacts", "access_spec"]

Index = Tuple[int, ...]


def access_spec(imap) -> Tuple[Tuple[int, ...], tuple]:
    """``(loop dims, index functions)`` of a separable/projected access."""
    if isinstance(imap, SeparableMap):
        return tuple(range(imap.dim)), imap.funcs
    if isinstance(imap, ProjectedMap):
        return imap.dims, imap.funcs
    raise ValueError("pipeline needs separable/projected accesses")


@dataclass
class AxisAccess:
    """One array axis: its 1-D decomposition, the index function feeding
    it, which loop dimension that function reads, and (after the
    `optimize-membership` pass) the chosen Table I enumerator."""

    dec: object
    func: object
    loop_dim: int
    access: Optional[object] = None  # OptimizedAccess

    @property
    def rule(self) -> str:
        return self.access.rule if self.access is not None else "?"


@dataclass
class AccessIR:
    """One array access (the write or one read) in substituted form."""

    ref: Ref
    name: str
    dec: object  # Decomposition | GridDecomposition | None (unplaced)
    dims: Tuple[int, ...] = ()
    funcs: tuple = ()
    axes: List[AxisAccess] = field(default_factory=list)
    pos: Optional[int] = None  # read position; None for the write

    @property
    def placed(self) -> bool:
        return self.dec is not None

    @property
    def replicated(self) -> bool:
        return bool(getattr(self.dec, "is_replicated", False))

    @property
    def label(self) -> str:
        return "write" if self.pos is None else f"read{self.pos}"

    def grid_coord(self, p: int) -> Tuple[int, ...]:
        """Grid coordinates of linear processor *p* for this access."""
        if isinstance(self.dec, GridDecomposition):
            return self.dec.grid_coord(p)
        return (p,)

    # -- scalar placement (per element; the kernels address whole
    # -- regions through :mod:`repro.pipeline.region`) ---------------------

    def array_index(self, idx: Index) -> Index:
        """The array index ``(f_k(i_{dims[k]}))_k`` at loop index *idx*."""
        return tuple(f(idx[d]) for d, f in zip(self.dims, self.funcs))

    def proc_of(self, idx: Index) -> int:
        """Owning (linear, row-major) processor of the element accessed
        at loop index *idx*."""
        p = 0
        for ax in self.axes:
            p = p * ax.dec.pmax + ax.dec.proc(ax.func(idx[ax.loop_dim]))
        return p

    def local_of(self, idx: Index) -> Index:
        """Local-memory index of that element on its owner (a replicated
        copy is addressed globally: ``Replicated.local`` is the identity)."""
        return tuple(ax.dec.local(ax.func(idx[ax.loop_dim]))
                     for ax in self.axes)

    def membership(self, p: int, loop_bounds, work=None) -> List[Index]:
        """``{idx in domain | proc(access(idx)) = p}`` — the Cartesian
        product of the per-axis Table I enumerations (a loop dimension
        the access does not constrain runs its full range, one several
        axes read holds what their enumerations share), lexicographic.
        *work* accumulates the enumerators' run-time overhead."""
        coord = self.grid_coord(p)
        per_loop: list = [None] * len(loop_bounds)
        for k, ax in enumerate(self.axes):
            d, found = ax.loop_dim, ax.access.enumerate(
                coord[k], work).indices()
            if per_loop[d] is not None:
                found = sorted(set(per_loop[d]).intersection(found))
            per_loop[d] = found
        return list(itertools.product(*(
            range(lo, hi + 1) if found is None else found
            for found, (lo, hi) in zip(per_loop, loop_bounds))))


@dataclass
class NodeSplit:
    """One node's interior/boundary partition of ``Modify_p``.

    ``modify[d]`` / ``interior[d]`` are the ascending keys
    (:mod:`repro.pipeline.region`) for loop dimension *d* — ``modify``
    is the node's row of :meth:`PlanIR.member_keys`, not a copy; the
    node's interior is the cartesian product of the per-dimension
    interiors (the factorized form — see the `split-interior` pass), and
    the boundary is ``Modify_p`` minus that product (it does not
    factorize: the fused kernels tile it with at most ``2*ndim``
    strips)."""

    modify: List[Key]    # per loop dim
    interior: List[Key]  # per loop dim

    # computed once: every pass-trace snapshot (``PlanIR.facts``) reads
    # the totals, and the keys are final once built

    @cached_property
    def modify_count(self) -> int:
        return math.prod(map(klen, self.modify))

    @cached_property
    def interior_count(self) -> int:
        return math.prod(map(klen, self.interior))

    @property
    def boundary_count(self) -> int:
        return self.modify_count - self.interior_count


@dataclass
class InteriorSplit:
    """The `split-interior` pass product: per-node partitions."""

    per_node: Dict[int, NodeSplit] = field(default_factory=dict)

    def totals(self) -> Tuple[int, int, int]:
        """``(modify, interior, boundary)`` element totals over all nodes
        (summed once: the split is final once built)."""
        return self._totals

    @cached_property
    def _totals(self) -> Tuple[int, int, int]:
        m = sum(ns.modify_count for ns in self.per_node.values())
        i = sum(ns.interior_count for ns in self.per_node.values())
        return m, i, m - i


@dataclass(frozen=True)
class Footprint:
    """Per node ``(write keys, ((read pos, array, keys), ...))``, a key
    per array axis: each access's ``image`` of the node's row of
    ``member_keys(write)`` — the regions of one-node ``union`` kernels,
    unbuilt (``(None, ())``: no lanes).  No node kernels: it sends
    nothing."""

    write_name: str
    pmax: int
    per_node: tuple
    flavor = "shared"
    nodes = ()


@dataclass
class PlanIR:
    """The unified plan: clause + substituted accesses + pass-derived
    facts, accumulated by the pass pipeline."""

    clause: Clause
    decomps: Dict[str, object]
    successor: Optional[Clause] = None
    #: nd-shared compilation does not require read decompositions
    require_read_decomps: bool = True

    # filled by substitute-views -------------------------------------------
    loop_bounds: List[Tuple[int, int]] = field(default_factory=list)
    write: Optional[AccessIR] = None
    reads: List[AccessIR] = field(default_factory=list)
    pmax: int = 0

    # filled by later passes -----------------------------------------------
    barrier_needed: bool = True
    reduction: Optional[object] = None
    doacross_distances: Dict[int, int] = field(default_factory=dict)
    interior_split: Optional[InteriorSplit] = None
    #: DiagnosticReport of the optional `verify-plan` pass (cached with
    #: the plan, so cache hits reuse the verdict)
    diagnostics: Optional[object] = None
    #: FusedKernels attached by the `lower-kernels` pass (compile-once
    #: node kernels for ``backend="fused"``; None when no fused form
    #: exists — the executors fall back to the scalar templates)
    kernels: Optional[object] = None
    #: the memo of :meth:`member_keys`, by read position (write: ``None``),
    #: and of :meth:`footprint` (``"footprint"``)
    _keys: Dict[object, object] = field(default_factory=dict, repr=False)

    trace: PipelineTrace = field(default_factory=PipelineTrace)

    # -- introspection -------------------------------------------------------

    @property
    def ir(self) -> "PlanIR":
        return self

    @property
    def ndim(self) -> int:
        return self.clause.domain.dim

    @property
    def write_name(self) -> str:
        return self.write.name

    def modify_indices(self, p: int, work=None) -> List[Index]:
        """``Modify_p`` via the chosen Table I rules (every index, on
        every node, for a replicated write)."""
        return self.write.membership(p, self.loop_bounds, work)

    def member_keys(self, acc: AccessIR) -> List[list]:
        """Per node, per loop dim, the key (:mod:`repro.pipeline.region`)
        of *acc*'s membership — ``Modify_p`` for the write, ``Reside_p``
        for a read; a dim it does not constrain runs its full range, one
        several axes read holds what they share.  The one place a
        compile-time consumer reads a Table I enumeration (the key it
        carries): gathered once per plan and shared by `split-interior`,
        the analyses, every kernel flavor, the §2.9 barrier proof and the
        clones of a cached plan."""
        if acc.pos not in self._keys:
            full = [prog(lo, 1, hi - lo + 1) for lo, hi in self.loop_bounds]
            self._keys[acc.pos] = per_node = []
            for p in range(self.pmax):
                keys, coord = [None] * len(full), acc.grid_coord(p)
                for k, ax in enumerate(acc.axes):
                    d, key = ax.loop_dim, ax.access.enumerate(coord[k]).key
                    keys[d] = key if keys[d] is None else meet(keys[d], key)
                per_node.append([f if k is None else k
                                 for k, f in zip(keys, full)])
        return self._keys[acc.pos]

    def footprint(self) -> Footprint:
        """The plan's :class:`Footprint`, memoized like
        :meth:`member_keys`."""
        if "footprint" not in self._keys:
            def keys(acc, row):
                return tuple(map(image, acc.funcs, [row[d] for d in acc.dims]))

            self._keys["footprint"] = Footprint(
                self.write.name, self.pmax, tuple(
                    (keys(self.write, row), tuple(
                        (a.pos, a.name, keys(a, row)) for a in self.reads))
                    if all(map(klen, row)) else (None, ())
                    for row in self.member_keys(self.write)))
        return self._keys["footprint"]

    def writers_of(self, idx: Index) -> List[int]:
        """Processors that update the element written at loop index
        *idx* — one under owner-computes, all of them for a replicated
        target."""
        if self.write.replicated:
            return list(range(self.pmax))
        return [self.write.proc_of(idx)]

    def accesses(self) -> List[AccessIR]:
        out = [self.write] if self.write is not None else []
        return out + list(self.reads)

    def rules(self) -> Dict[str, str]:
        out: Dict[str, str] = {}
        for acc in self.accesses():
            for k, ax in enumerate(acc.axes):
                key = f"{acc.label}:{acc.name}" if len(acc.axes) == 1 else \
                    f"{acc.label}:{acc.name}:dim{k}"
                out[key] = ax.rule
        return out

    def facts(self) -> "PlanFacts":
        """What :meth:`describe` prints, as a value snapshot."""
        return PlanFacts(
            clause=self.clause,
            accesses=tuple([
                (acc.label, acc.name, acc.funcs, acc.dec,
                 tuple([ax.rule for ax in acc.axes]))
                for acc in self.accesses()]),
            reduction=self.reduction is not None,
            doacross=tuple(self.doacross_distances.items()),
            split=(self.interior_split.totals()
                   if self.interior_split is not None else None),
            barrier=self.barrier_needed,
        )

    def describe(self) -> str:
        return str(self.facts())


@dataclass(frozen=True)
class PlanFacts:
    """The facts :meth:`PlanIR.describe` prints, held as values (the
    clause and decompositions are the compile's inputs, never mutated):
    the pass trace keeps one per pass boundary and renders its text only
    when a reader asks (``compile --explain --verbose``)."""

    clause: Clause
    #: per access: ``(label, array, index functions, decomposition, rules)``
    accesses: tuple
    reduction: bool
    doacross: tuple
    split: Optional[Tuple[int, int, int]]
    barrier: bool

    @cached_property
    def text(self) -> str:
        lines = [repr(self.clause)]
        for label, name, funcs, dec, rules in self.accesses:
            shape = ",".join(f.name for f in funcs) if funcs else "?"
            dec = "<unplaced>" if dec is None else repr(dec)
            lines.append(f"  {label}:{name}[{shape}] under {dec} "
                         f"[{', '.join(rules)}]")
        flags = ["reduction"] if self.reduction else []
        if self.doacross:
            flags.append(f"doacross={dict(self.doacross)}")
        if self.split is not None:
            m, i, b = self.split
            flags.append(f"interior={i}/{m} boundary={b}")
        flags.append(f"barrier={'kept' if self.barrier else 'eliminated'}")
        lines.append("  " + " ".join(flags))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.text
