"""Closed-form set enumerators (paper Section 3, Theorems 1-3, Table I).

Each enumerator produces exactly the members of

    ``Modify_p = { i in [imin, imax] | proc(f(i)) = p }``

in increasing order, but — unlike the naive scan — without testing every
index in the range.  The enumerators return :class:`Enumeration` objects
whose ``segments`` are strided integer ranges, the direct counterpart of
the paper's generation functions ``gen_p(t)`` with bounds
``t_p,min .. t_p,max``; codegen turns each segment into a plain loop.

The :class:`~repro.sets.membership.Work` counters record what run-time
effort remains (Euclid steps, inverse evaluations, divisibility tests), so
benchmarks can reproduce the paper's overhead arguments quantitatively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..core.ifunc import AffineF, ConstantF, IFunc, ModularF, ceil_div, floor_div
from ..decomp.base import Decomposition
from ..decomp.block import Block
from ..decomp.blockscatter import BlockScatter
from ..decomp.replicated import Replicated, SingleOwner
from ..decomp.scatter import Scatter
from .membership import Work, modify_naive

__all__ = [
    "Segment",
    "Enumeration",
    "enum_constant",
    "enum_block",
    "enum_repeated_block",
    "enum_repeated_scatter",
    "enum_scatter_linear",
    "enum_scatter_on_k",
    "enum_piecewise",
    "enum_naive",
    "enum_trivial",
]


@dataclass(frozen=True)
class Segment:
    """Inclusive strided range ``lo, lo+step, .., hi`` (``hi`` attained)."""

    lo: int
    hi: int
    step: int = 1

    def __post_init__(self):
        if self.step < 1:
            raise ValueError("step must be >= 1")

    def indices(self) -> range:
        return range(self.lo, self.hi + 1, self.step)

    def count(self) -> int:
        if self.lo > self.hi:
            return 0
        return (self.hi - self.lo) // self.step + 1

    def index_array(self):
        """The segment as an int64 index vector (NumPy strided range)."""
        import numpy as np

        return np.arange(self.lo, self.hi + 1, self.step, dtype=np.int64)


@dataclass
class Enumeration:
    """Result of one optimized enumeration: which rule fired and the
    strided segments that *are* ``Modify_p`` (or ``Reside_p``)."""

    rule: str
    segments: List[Segment] = field(default_factory=list)

    def indices(self) -> List[int]:
        out: List[int] = []
        for s in self.segments:
            out.extend(s.indices())
        return out

    def count(self) -> int:
        return sum(s.count() for s in self.segments)

    def index_array(self):
        """All member indices as one sorted int64 vector.

        Sorted ascending so that *every* node enumerating the same index
        set walks it in the same (lexicographic) order — the alignment
        property the batched message protocol relies on (a payload
        carries values only, never positions).
        """
        import numpy as np

        if not self.segments:
            return np.empty(0, dtype=np.int64)
        out = np.concatenate([s.index_array() for s in self.segments])
        return np.sort(out)

    def add(self, lo: int, hi: int, step: int = 1) -> None:
        if lo <= hi:
            self.segments.append(Segment(lo, hi, step))

    def sort(self) -> "Enumeration":
        self.segments.sort(key=lambda s: s.lo)
        return self


# ---------------------------------------------------------------------------
# Theorem 1: constant access under any decomposition
# ---------------------------------------------------------------------------

def enum_constant(
    d: Decomposition, f: ConstantF, imin: int, imax: int, p: int, work: Work
) -> Enumeration:
    """Theorem 1: ``f(i) = c`` — the full range on ``proc(c)``, empty
    elsewhere.  One test, total."""
    e = Enumeration("thm1-constant")
    work.tests += 1
    if d.proc(f.c) == p:
        e.add(imin, imax)
        work.emitted += e.count()
    return e


# ---------------------------------------------------------------------------
# Degenerate decompositions
# ---------------------------------------------------------------------------

def enum_trivial(
    d: Decomposition, f: IFunc, imin: int, imax: int, p: int, work: Work
) -> Enumeration:
    """SingleOwner / Replicated: membership is independent of ``f``."""
    if isinstance(d, Replicated):
        e = Enumeration("replicated-all")
        e.add(imin, imax)
        work.emitted += e.count()
        return e
    if isinstance(d, SingleOwner):
        e = Enumeration("singleowner")
        work.tests += 1
        if d.owner == p:
            e.add(imin, imax)
            work.emitted += e.count()
        return e
    raise TypeError(f"enum_trivial does not handle {type(d).__name__}")


# ---------------------------------------------------------------------------
# Block decomposition (§3.2.ii): one preimage of the owned data interval
# ---------------------------------------------------------------------------

def enum_block(
    d: Block, f: IFunc, imin: int, imax: int, p: int, work: Work
) -> Enumeration:
    """Block: ``j in [max(imin, f⁻¹(b.p)), min(imax, f⁻¹(b.p + b - 1))]``
    — a single contiguous range per processor (``k`` eliminated)."""
    e = Enumeration("block")
    lo = d.b * p
    hi = min(d.b * p + d.b - 1, d.n - 1)
    if lo > hi:
        return e
    work.preimage_calls += 1
    for jmin, jmax in f.preimage(lo, hi, imin, imax):
        e.add(jmin, jmax)
        work.emitted += jmax - jmin + 1
    return e


# ---------------------------------------------------------------------------
# Theorem 2: block-scatter, Repeated Block form
# ---------------------------------------------------------------------------

def _course_range(
    d: BlockScatter, f: IFunc, imin: int, imax: int, p: int
) -> Tuple[int, int]:
    """Range of block indices ``t = p + k.pmax`` whose data interval can
    intersect the image of ``f`` (generalizing the paper's
    ``k_max = (f(imax) div b - p) div pmax`` to either monotone direction
    and to images not starting at 0)."""
    flo, fhi = f.image_bounds(imin, imax)
    flo = max(flo, 0)
    fhi = min(fhi, d.n - 1)
    if flo > fhi:
        return (0, -1)
    t_lo = floor_div(flo, d.b)
    t_hi = floor_div(fhi, d.b)
    kmin = max(0, ceil_div(t_lo - p, d.pmax))
    kmax = floor_div(t_hi - p, d.pmax)
    return (kmin, kmax)


def enum_repeated_block(
    d: BlockScatter, f: IFunc, imin: int, imax: int, p: int, work: Work
) -> Enumeration:
    """Theorem 2 (*Repeated Block*): one contiguous ``j`` range per course
    ``k``, obtained from the preimage of each owned data block."""
    e = Enumeration("thm2-repeated-block")
    kmin, kmax = _course_range(d, f, imin, imax, p)
    for k in range(kmin, kmax + 1):
        t = p + k * d.pmax
        lo = d.b * t
        hi = min(lo + d.b - 1, d.n - 1)
        if lo > hi:
            continue
        work.iterations += 1
        work.preimage_calls += 1
        for jmin, jmax in f.preimage(lo, hi, imin, imax):
            e.add(jmin, jmax)
            work.emitted += jmax - jmin + 1
    return e.sort()


# ---------------------------------------------------------------------------
# §3.2.i: block-scatter, Repeated Scatter form
# ---------------------------------------------------------------------------

def enum_repeated_scatter(
    d: BlockScatter, f: IFunc, imin: int, imax: int, p: int, work: Work
) -> Enumeration:
    """The *Repeated Scatter* rewriting of Theorem 2 (§3.2.i): iterate the
    ``b`` offsets of the owned block position; per offset, the courses
    ``k`` with ``f⁻¹(t + b.k.pmax) ∈ Z`` are found — in closed form via a
    congruence on ``k`` for affine ``f``, or by divisibility testing
    otherwise.  Favourable when ``b <= f(imax)/(2.pmax)``."""
    e = Enumeration("repeated-scatter")
    kmin, kmax = _course_range(d, f, imin, imax, p)
    if kmax < kmin:
        return e
    stride = d.b * d.pmax
    if isinstance(f, AffineF):
        # the whole (offset x course) grid by array arithmetic: one row
        # per offset t, one column per candidate course of that offset
        import numpy as np

        t = d.b * p + np.arange(d.b, dtype=np.int64)[:, None]
        first, every, solvable = kmin, 1, True
        if abs(f.a) != 1:
            from ..diophantine.euclid import extended_euclid

            a = abs(f.a)
            # stride.k ≡ (c - t) (mod a): gcd and Bézout once per access —
            # the paper's "gcd and C calculation need only be done once".
            res = extended_euclid(stride % a if stride % a else a, a)
            work.euclid_steps += res.steps
            work.iterations += d.b
            rhs = (f.c - t) % a
            solvable = rhs % res.g == 0  # else no course hits an integer
            every = a // res.g
            # particular solution of stride.k ≡ c - t (mod a), from kmin on
            first = kmin + (res.x * (rhs // res.g) % every - kmin) % every
        k = first + every * np.arange((kmax - kmin) // every + 1,
                                      dtype=np.int64)
        v = t + k * stride
        live = solvable & (k <= kmax) & (v < d.n)
        if abs(f.a) == 1:  # no congruence to prune with: every course tested
            tested = int(live.sum())
            work.iterations += tested
            work.tests += tested
        i, r = np.divmod(v - f.c, f.a)
        pts = np.sort(i[live & (r == 0) & (imin <= i) & (i <= imax)]).tolist()
    else:
        pts = []
        for off in range(d.b):
            t = d.b * p + off
            for k in range(kmin, kmax + 1):
                v = t + k * stride
                if v >= d.n:
                    break
                work.iterations += 1
                work.tests += 1
                pts.extend(f.solve(v, imin, imax))
        pts.sort()
    work.emitted += len(pts)
    e.segments = [Segment(i, i) for i in pts]
    return e


# ---------------------------------------------------------------------------
# Theorem 3: scatter with linear access via diophantine solve
# ---------------------------------------------------------------------------

def enum_scatter_linear(
    d: Scatter, f: AffineF, imin: int, imax: int, p: int, work: Work
) -> Enumeration:
    """Theorem 3: ``f(i) = a.i + c`` under scatter — the solutions form the
    progression ``gen_p(t) = x_p + (pmax/gcd(a, pmax)).t``.

    Corollary 1 (``pmax mod a = 0``) and Corollary 2 (``a mod pmax = 0``)
    are the same progression with simplified constants; the fired rule is
    tagged accordingly so benchmarks can report them separately.
    """
    from ..diophantine.linear import solve_scatter_congruence

    if d.pmax % abs(f.a) == 0:
        rule = "thm3-cor1"  # pmax mod a = 0: gen(t) = (p - c + pmax.t)/a
    elif abs(f.a) % d.pmax == 0:
        rule = "thm3-cor2"  # a mod pmax = 0: single active processor
    else:
        rule = "thm3-linear"
    sol = solve_scatter_congruence(f.a, f.c, d.pmax, p)
    e = Enumeration(rule)
    if sol is None:
        work.euclid_steps += 1  # the failed solvability check still ran
        return e
    work.euclid_steps += sol.euclid_steps
    # Clip also to indices whose image lies inside the data range [0, n).
    rngs = f.preimage(0, d.n - 1, imin, imax)
    work.preimage_calls += 1
    for rlo, rhi in rngs:
        tmin, tmax = sol.t_range(rlo, rhi)  # the paper's t_p,min .. t_p,max
        if tmin <= tmax:
            e.add(sol.gen(tmin), sol.gen(tmax), sol.stride)
            work.emitted += tmax - tmin + 1
    return e


# ---------------------------------------------------------------------------
# §3.2 closing observation: enumerate on k (scatter, monotone non-linear f)
# ---------------------------------------------------------------------------

def enum_scatter_on_k(
    d: Scatter, f: IFunc, imin: int, imax: int, p: int, work: Work
) -> Enumeration:
    """Scatter with monotone non-linear ``f``: enumerate the *data* values
    ``v = p + k.pmax`` and test ``f(i) = v`` for integer ``i`` — sampling
    rate ``pmax`` instead of ``df/di``, an improvement of
    ``pmax/(df/di)`` when ``df/di < pmax``."""
    e = Enumeration("enum-on-k")
    flo, fhi = f.image_bounds(imin, imax)
    flo = max(flo, 0)
    fhi = min(fhi, d.n - 1)
    pts: List[int] = []
    if flo <= fhi:
        # first v >= flo with v ≡ p (mod pmax); flo >= 0 keeps v >= 0
        v = p + ceil_div(flo - p, d.pmax) * d.pmax
        while v <= fhi:
            work.iterations += 1
            work.preimage_calls += 1
            for i in f.solve(v, imin, imax):
                pts.append(i)
                work.emitted += 1
            v += d.pmax
    for i in sorted(pts):
        e.add(i, i)
    return e


# ---------------------------------------------------------------------------
# §3.3: piece-wise monotonic (modular) access
# ---------------------------------------------------------------------------

def enum_piecewise(
    d: Decomposition,
    f: ModularF,
    imin: int,
    imax: int,
    p: int,
    work: Work,
    piece_enum,
) -> Enumeration:
    """§3.3: split ``[imin, imax]`` at the breakpoints of
    ``f(i) = g(i) mod z + d`` and run *piece_enum* on each monotone piece
    (``f = g - z.k + d``), concatenating the per-piece segments."""
    e = Enumeration("piecewise")
    for seg_lo, seg_hi, piece in f.pieces(imin, imax):
        work.iterations += 1
        sub = piece_enum(d, piece, seg_lo, seg_hi, p, work)
        e.segments.extend(sub.segments)
        e.rule = f"piecewise({sub.rule})"
    return e.sort()


# ---------------------------------------------------------------------------
# Fallback
# ---------------------------------------------------------------------------

def enum_naive(
    d: Decomposition, f: IFunc, imin: int, imax: int, p: int, work: Work
) -> Enumeration:
    """No optimization applies: the full run-time scan."""
    e = Enumeration("naive")
    for i in modify_naive(d, f, imin, imax, p, work):
        e.add(i, i)
    return e
