"""Closed-form set enumerators (paper Section 3, Theorems 1-3, Table I).

Each enumerator produces exactly the members of

    ``Modify_p = { i in [imin, imax] | proc(f(i)) = p }``

— but, unlike the naive scan, without testing every index in the range.
The enumerators return :class:`Enumeration` objects: a table of strided
integer ranges in three int64 arrays, the direct counterpart of the
paper's generation functions ``gen_p(t)`` with bounds ``t_p,min ..
t_p,max``, and the membership key the compiler reads; codegen turns each
row into a plain loop.

The :class:`~repro.sets.membership.Work` counters record what run-time
effort remains (Euclid steps, inverse evaluations, divisibility tests), so
benchmarks can reproduce the paper's overhead arguments quantitatively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Tuple

import numpy as np

from ..core.ifunc import AffineF, ConstantF, IFunc, ModularF, ceil_div, floor_div
from ..decomp.base import Decomposition
from ..decomp.block import Block
from ..decomp.blockscatter import BlockScatter
from ..decomp.replicated import Replicated, SingleOwner
from ..decomp.scatter import Scatter
from ..pipeline.region import Key, compress, prog, tiles, vec
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
        return np.arange(self.lo, self.hi + 1, self.step, dtype=np.int64)


def _expand(lo: np.ndarray, hi: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Every member of the rows ``lo .. hi`` by ``step``, row after row."""
    cnt = (hi - lo) // step + 1
    within = np.arange(int(cnt.sum()), dtype=np.int64) \
        - np.repeat(np.cumsum(cnt) - cnt, cnt)
    return np.repeat(lo, cnt) + np.repeat(step, cnt) * within


@dataclass(frozen=True, eq=False)
class Enumeration:
    """Which rule fired, the segment table that *is* ``Modify_p`` (or
    ``Reside_p``) — row ``r`` the range ``lo[r] .. hi[r]`` by ``step[r]``,
    built on first access for a grid of courses — and its ``key``
    (:mod:`repro.pipeline.region`), the members ascending and distinct.
    Read-only: shared, never copied."""

    rule: str
    key: Key
    #: the ``(lo, hi, step)`` rows, or the grid :func:`_grid_rows` reads
    source: tuple = field(repr=False)

    @classmethod
    def table(cls, rule: str, lo=(), hi=(), step=1) -> "Enumeration":
        """The rows ``lo .. hi`` by *step* (scalars broadcast) in the
        order given, empty rows dropped."""
        lo, hi, step = (np.asarray(a, dtype=np.int64) for a in (lo, hi, step))
        if lo.shape == hi.shape and not step.ndim:  # the common call
            lo, hi = lo.reshape(-1), hi.reshape(-1)
            step = np.full(lo.size, step)
        else:
            lo, hi, step = (a.reshape(-1) for a in np.broadcast_arrays(
                lo, hi, step))
        live = lo <= hi
        if not live.all():
            lo, hi, step = lo[live], hi[live], step[live]
        if (step < 1).any():
            raise ValueError("step must be >= 1")
        if lo.size <= 1:
            key = prog(int(lo[0]), int(step[0]), int(
                (hi[0] - lo[0]) // step[0]) + 1) if lo.size else prog(0, 1, 0)
        else:
            v = _expand(lo, hi, step)
            key = compress(v if (v[1:] > v[:-1]).all() else np.unique(v))
        for a in (lo, hi, step, key):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        return cls(rule, key, (lo, hi, step))

    @cached_property
    def _rows(self) -> tuple:
        return self.source if len(self.source) == 3 \
            else _grid_rows(self.key, *self.source)

    lo = property(lambda self: self._rows[0])
    hi = property(lambda self: self._rows[1])
    step = property(lambda self: self._rows[2])

    @property
    def segments(self) -> List[Segment]:
        """The rows as :class:`Segment` objects, for what prints them."""
        return [Segment(*row) for row in zip(
            self.lo.tolist(), self.hi.tolist(), self.step.tolist())]

    def indices(self) -> List[int]:
        """The members in row order."""
        return _expand(self.lo, self.hi, self.step).tolist()

    def count(self) -> int:
        return int(((self.hi - self.lo) // self.step + 1).sum())

    def index_array(self) -> np.ndarray:
        """All member indices as one ascending int64 vector: every node
        walks a shared index set in the same order, so a message payload
        carries values only, never positions."""
        return vec(self.key)


def _grid_rows(key: Key, start: int, ostep: int, ocount: int, istep: int,
               icount: int, per_member: bool) -> tuple:
    """The read-only rows of a course grid: one single-point row per
    member, or one row per course."""
    lo = vec(key) if per_member \
        else start + ostep * np.arange(ocount, dtype=np.int64)
    rows = (lo, lo if per_member else lo + istep * (icount - 1),
            np.full(lo.size, 1 if per_member else istep, dtype=np.int64))
    for a in rows:
        a.flags.writeable = False
    return rows


def _whole(rule: str, owns: bool, imin: int, imax: int,
           work: Work) -> Enumeration:
    """``imin .. imax`` on a node that *owns* the range, else nothing."""
    e = Enumeration.table(rule, imin, imax) if owns else Enumeration.table(rule)
    work.emitted += e.count()
    return e


# ---------------------------------------------------------------------------
# Theorem 1: constant access under any decomposition
# ---------------------------------------------------------------------------

def enum_constant(
    d: Decomposition, f: ConstantF, imin: int, imax: int, p: int, work: Work
) -> Enumeration:
    """Theorem 1: ``f(i) = c`` — the full range on ``proc(c)``, empty
    elsewhere.  One test, total."""
    work.tests += 1
    return _whole("thm1-constant", d.proc(f.c) == p, imin, imax, work)


# ---------------------------------------------------------------------------
# Degenerate decompositions
# ---------------------------------------------------------------------------

def enum_trivial(
    d: Decomposition, f: IFunc, imin: int, imax: int, p: int, work: Work
) -> Enumeration:
    """SingleOwner / Replicated: membership is independent of ``f``."""
    if isinstance(d, Replicated):
        return _whole("replicated-all", True, imin, imax, work)
    if isinstance(d, SingleOwner):
        work.tests += 1
        return _whole("singleowner", d.owner == p, imin, imax, work)
    raise TypeError(f"enum_trivial does not handle {type(d).__name__}")


# ---------------------------------------------------------------------------
# Block decomposition (§3.2.ii): one preimage of the owned data interval
# ---------------------------------------------------------------------------

def enum_block(
    d: Block, f: IFunc, imin: int, imax: int, p: int, work: Work
) -> Enumeration:
    """Block: ``j in [max(imin, f⁻¹(b.p)), min(imax, f⁻¹(b.p + b - 1))]``
    — a single contiguous range per processor (``k`` eliminated)."""
    lo = d.b * p
    hi = min(d.b * p + d.b - 1, d.n - 1)
    if lo > hi:
        return Enumeration.table("block")
    work.preimage_calls += 1
    rows = f.preimage(lo, hi, imin, imax)
    work.emitted += sum(jmax - jmin + 1 for jmin, jmax in rows)
    return Enumeration.table("block", *zip(*rows))


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
    ``k``, obtained from the preimage of each owned data block — one
    grid when the clipping leaves every course whole and (affine ``f``,
    slope dividing the stride) each a translate of the first."""
    rule, stride = "thm2-repeated-block", d.b * d.pmax
    kmin, kmax = _course_range(d, f, imin, imax, p)
    # the courses whose block starts inside the array: one preimage each
    kmax = min(kmax, floor_div(d.n - 1 - d.b * p, stride))
    courses = max(0, kmax - kmin + 1)
    work.iterations += courses
    work.preimage_calls += courses

    def block(k: int, lo: int = -(1 << 62), hi: int = 1 << 62, n=1 << 62):
        first = d.b * (p + k * d.pmax)
        return f.preimage(first, min(first + d.b - 1, n - 1), lo, hi)

    if courses and isinstance(f, AffineF) and stride % f.a == 0:
        whole, shift = block(kmin), stride // f.a * (kmax - kmin)
        if whole and block(kmin, imin, imax, d.n) == whole and block(
                kmax, imin, imax, d.n) == [(x + shift, y + shift)
                                           for x, y in whole]:
            (j0, j1), = whole
            work.emitted += courses * (j1 - j0 + 1)
            grid = (min(j0, j0 + shift), abs(stride // f.a), courses, 1,
                    j1 - j0 + 1)
            return Enumeration(rule, tiles(*grid), grid + (False,))
    rows: List[Tuple[int, int]] = []
    for k in range(kmin, kmax + 1):
        for jmin, jmax in block(k, imin, imax, d.n):
            rows.append((jmin, jmax))
            work.emitted += jmax - jmin + 1
    rows.sort(key=lambda r: r[0])
    return Enumeration.table(rule, *zip(*rows))


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
    otherwise.  Favourable when ``b <= f(imax)/(2.pmax)``.  Under affine
    ``f`` each offset's members are one progression, all of one step:
    one grid when of one length, their first members a progression."""
    rule = "repeated-scatter"
    kmin, kmax = _course_range(d, f, imin, imax, p)
    if kmax < kmin:
        return Enumeration.table(rule)
    stride = d.b * d.pmax
    if isinstance(f, AffineF):
        # array arithmetic over the b offsets t, never over the courses
        t = d.b * p + np.arange(d.b, dtype=np.int64)
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
        # per offset the last course whose element lies inside the array
        last = np.minimum(kmax, (d.n - 1 - t) // stride)
        if abs(f.a) == 1:  # no congruence to prune with: every course tested
            tested = int(np.maximum(0, last - kmin + 1).sum())
            work.iterations += tested
            work.tests += tested
        # course first + every.j holds i = i0 + step.j, imin <= i <= imax
        step = stride * every // f.a
        i0 = (t + first * stride - f.c) // f.a
        near, far = (imin, imax) if step > 0 else (imax, imin)
        jlo = np.maximum(0, -((i0 - near) // step))
        jhi = np.minimum((last - first) // every, (far - i0) // step)
        count = np.where(solvable, jhi - jlo + 1, 0)
        live = count > 0
        low = (i0 + step * (jlo if step > 0 else jhi))[live]
        order = np.argsort(low)
        low, count = low[order], count[live][order]
        work.emitted += int(count.sum())
        u, gaps = abs(step), np.diff(low)
        if low.size and (count == count[0]).all() and \
                (gaps == gaps[:1]).all() and low[-1] - low[0] < u:
            grid = (int(low[0]), u, int(count[0]),
                    int(gaps[0]) if gaps.size else 1, low.size)
            return Enumeration(rule, tiles(*grid), grid + (True,))
        pts = np.sort(_expand(low, low + u * (count - 1),
                              np.full(low.size, u)))
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
    return Enumeration.table(rule, pts, pts)


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
    if sol is None:
        work.euclid_steps += 1  # the failed solvability check still ran
        return Enumeration.table(rule)
    work.euclid_steps += sol.euclid_steps
    # Clip also to indices whose image lies inside the data range [0, n).
    rngs = f.preimage(0, d.n - 1, imin, imax)
    work.preimage_calls += 1
    rows = []
    for rlo, rhi in rngs:
        tmin, tmax = sol.t_range(rlo, rhi)  # the paper's t_p,min .. t_p,max
        if tmin <= tmax:
            rows.append((sol.gen(tmin), sol.gen(tmax)))
            work.emitted += tmax - tmin + 1
    return Enumeration.table(rule, *zip(*rows), step=sol.stride)


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
    pts.sort()
    return Enumeration.table("enum-on-k", pts, pts)


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
    (``f = g - z.k + d``), concatenating the per-piece tables — the
    pieces are consecutive subranges, so the rows stay in order."""
    rule, subs = "piecewise", []
    for seg_lo, seg_hi, piece in f.pieces(imin, imax):
        work.iterations += 1
        subs.append(piece_enum(d, piece, seg_lo, seg_hi, p, work))
        rule = f"piecewise({subs[-1].rule})"
    return Enumeration.table(rule, *(
        np.concatenate([getattr(e, c) for e in subs] or [()])
        for c in ("lo", "hi", "step")))


# ---------------------------------------------------------------------------
# Fallback
# ---------------------------------------------------------------------------

def enum_naive(
    d: Decomposition, f: IFunc, imin: int, imax: int, p: int, work: Work
) -> Enumeration:
    """No optimization applies: the full run-time scan."""
    pts = modify_naive(d, f, imin, imax, p, work)
    return Enumeration.table("naive", pts, pts)
