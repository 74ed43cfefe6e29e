"""Index-propagation function algebra (paper Definitions 3-5, Section 3).

The optimizations of Section 3 are driven by *classes* of scalar index
functions ``f : Z -> Z``:

* ``ConstantF``   — ``f(i) = c``                        (Theorem 1)
* ``AffineF``     — ``f(i) = a.i + c``, ``a != 0``      (Theorem 3, corollaries)
* ``MonotoneF``   — arbitrary monotone injective ``f``  (Theorem 2, §3.2.iii)
* ``ModularF``    — ``f(i) = g(i) mod z + d``           (§3.3 piecewise)
* ``ComposedF``   — ``f ∘ g``                           (Definition 5)

Every function exposes exact integer *preimage* computation: the set of
integers ``i`` in ``[imin, imax]`` with ``lo <= f(i) <= hi``, returned as a
list of disjoint increasing ``(jmin, jmax)`` ranges.  This is the primitive
from which all Table I enumerators derive their loop bounds, with the
ceil/floor integer-boundary care the paper leaves implicit.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

import numpy as np

__all__ = [
    "ceil_div",
    "floor_div",
    "IFunc",
    "ConstantF",
    "AffineF",
    "MonotoneF",
    "ModularF",
    "IndirectF",
    "ComposedF",
    "IdentityF",
    "classify",
    "apply_ifunc",
]


def floor_div(a: int, b: int) -> int:
    """Exact ``floor(a / b)`` for integers, any sign of *b* (b != 0).

    Python's ``//`` already floors toward negative infinity, which is the
    semantics Theorem 2's range derivations require.
    """
    return a // b


def ceil_div(a: int, b: int) -> int:
    """Exact ``ceil(a / b)`` for integers, any sign of *b* (b != 0)."""
    q, r = divmod(a, b)
    return q + (1 if r else 0)


Ranges = List[Tuple[int, int]]


def _clip(jmin: int, jmax: int, imin: int, imax: int) -> Ranges:
    lo, hi = max(jmin, imin), min(jmax, imax)
    return [(lo, hi)] if lo <= hi else []


def _merge(ranges: Ranges) -> Ranges:
    """Sort and coalesce adjacent/overlapping ranges."""
    out: Ranges = []
    for lo, hi in sorted(r for r in ranges if r[0] <= r[1]):
        if out and lo <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


class IFunc:
    """Base class for scalar index-propagation functions."""

    #: diagnostic name used by repr and codegen comments
    name: str = "f"

    # -- evaluation ---------------------------------------------------------

    def __call__(self, i: int) -> int:
        raise NotImplementedError

    # -- classification (Table I dispatch) -----------------------------------

    @property
    def is_constant(self) -> bool:
        return False

    @property
    def is_affine(self) -> bool:
        return False

    def monotone_direction(self, imin: int, imax: int) -> int:
        """+1 increasing, -1 decreasing, 0 neither/unknown on [imin, imax]."""
        raise NotImplementedError

    def derivative_bound(self, imin: int, imax: int) -> float:
        """An upper bound on ``df/di`` over the interval (used by the
        enumerate-on-k advantage test of Section 3.2)."""
        raise NotImplementedError

    # -- inverse machinery ----------------------------------------------------

    def preimage(self, lo: int, hi: int, imin: int, imax: int) -> Ranges:
        """Disjoint increasing integer ranges of ``{ i in [imin,imax] |
        lo <= f(i) <= hi }``."""
        raise NotImplementedError

    def solve(self, v: int, imin: int, imax: int) -> List[int]:
        """All ``i`` in ``[imin, imax]`` with ``f(i) = v``, increasing."""
        out: List[int] = []
        for jmin, jmax in self.preimage(v, v, imin, imax):
            out.extend(range(jmin, jmax + 1))
        return out

    def image_bounds(self, imin: int, imax: int) -> Tuple[int, int]:
        """``(min f, max f)`` over the (non-empty) interval.

        Exact for monotone pieces; subclasses override as needed.
        """
        raise NotImplementedError

    # -- composition -----------------------------------------------------------

    def compose(self, inner: "IFunc") -> "IFunc":
        """``self ∘ inner`` (Definition 5: ``ip_u = ip_w ∘ ip_v``)."""
        return ComposedF(self, inner)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name})"


class ConstantF(IFunc):
    """``f(i) = c`` (Theorem 1)."""

    def __init__(self, c: int):
        self.c = int(c)
        self.name = f"{self.c}"

    def __call__(self, i: int) -> int:
        return self.c

    @property
    def is_constant(self) -> bool:
        return True

    def monotone_direction(self, imin: int, imax: int) -> int:
        return 0

    def derivative_bound(self, imin: int, imax: int) -> float:
        return 0.0

    def preimage(self, lo: int, hi: int, imin: int, imax: int) -> Ranges:
        if lo <= self.c <= hi and imin <= imax:
            return [(imin, imax)]
        return []

    def image_bounds(self, imin: int, imax: int) -> Tuple[int, int]:
        return self.c, self.c

    def __eq__(self, other):
        return isinstance(other, ConstantF) and other.c == self.c

    def __hash__(self):
        return hash(("ConstantF", self.c))


class AffineF(IFunc):
    """``f(i) = a.i + c`` with ``a != 0`` (Theorem 3 and corollaries)."""

    def __init__(self, a: int, c: int = 0):
        if a == 0:
            raise ValueError("AffineF requires a != 0; use ConstantF")
        self.a = int(a)
        self.c = int(c)
        self.name = f"{self.a}*i{self.c:+d}" if self.c else f"{self.a}*i"

    def __call__(self, i: int) -> int:
        return self.a * i + self.c

    @property
    def is_affine(self) -> bool:
        return True

    def monotone_direction(self, imin: int, imax: int) -> int:
        return 1 if self.a > 0 else -1

    def derivative_bound(self, imin: int, imax: int) -> float:
        return float(abs(self.a))

    def preimage(self, lo: int, hi: int, imin: int, imax: int) -> Ranges:
        # lo <= a.i + c <= hi
        if self.a > 0:
            jmin = ceil_div(lo - self.c, self.a)
            jmax = floor_div(hi - self.c, self.a)
        else:
            jmin = ceil_div(hi - self.c, self.a)
            jmax = floor_div(lo - self.c, self.a)
        return _clip(jmin, jmax, imin, imax)

    def image_bounds(self, imin: int, imax: int) -> Tuple[int, int]:
        v1, v2 = self(imin), self(imax)
        return (v1, v2) if v1 <= v2 else (v2, v1)

    def compose(self, inner: "IFunc") -> "IFunc":
        # Affine∘Affine stays affine; Affine∘Constant is constant.
        if isinstance(inner, AffineF):
            return AffineF(self.a * inner.a, self.a * inner.c + self.c)
        if isinstance(inner, ConstantF):
            return ConstantF(self(inner.c))
        return ComposedF(self, inner)

    def __eq__(self, other):
        return isinstance(other, AffineF) and (other.a, other.c) == (self.a, self.c)

    def __hash__(self):
        return hash(("AffineF", self.a, self.c))


class IdentityF(AffineF):
    """``f(i) = i`` — the ``id`` of Definition 5."""

    def __init__(self) -> None:
        super().__init__(1, 0)
        self.name = "i"


class MonotoneF(IFunc):
    """Arbitrary monotone injective ``f`` given as a callable.

    The integer inverse is computed by binary search, exactly as Section 4
    prescribes for non-linear monotone functions whose symbolic inverse is
    unavailable to the compiler.

    ``direction`` is +1 (increasing) or -1 (decreasing); it is validated
    lazily against evaluations.
    """

    def __init__(
        self,
        fn: Callable[[int], int],
        direction: int = 1,
        name: str = "f",
        derivative_max: float | None = None,
    ):
        if direction not in (1, -1):
            raise ValueError("direction must be +1 or -1")
        self.fn = fn
        self.direction = direction
        self.name = name
        self._dmax = derivative_max

    def __call__(self, i: int) -> int:
        return int(self.fn(i))

    def monotone_direction(self, imin: int, imax: int) -> int:
        return self.direction

    def derivative_bound(self, imin: int, imax: int) -> float:
        if self._dmax is not None:
            return self._dmax
        if imax <= imin:
            return 0.0
        # Monotone => the mean slope over the whole interval bounds nothing
        # pointwise, but sampling successive differences gives a practical
        # bound for the §3.2 enumerate-on-k heuristic.
        span = imax - imin
        samples = min(span, 64)
        step = max(1, span // samples)
        best = 0.0
        i = imin
        while i < imax:
            j = min(i + step, imax)
            best = max(best, abs(self(j) - self(i)) / (j - i))
            i = j
        return best

    # least i in [imin, imax] with f(i) >= v (increasing) — binary search
    def _lower_bound(self, v: int, imin: int, imax: int) -> int:
        lo, hi = imin, imax + 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self(mid) >= v:
                hi = mid
            else:
                lo = mid + 1
        return lo

    # greatest i in [imin, imax] with f(i) <= v (increasing)
    def _upper_bound(self, v: int, imin: int, imax: int) -> int:
        lo, hi = imin - 1, imax
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self(mid) <= v:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def preimage(self, lo: int, hi: int, imin: int, imax: int) -> Ranges:
        if imin > imax or lo > hi:
            return []
        if self.direction == 1:
            jmin = self._lower_bound(lo, imin, imax)
            jmax = self._upper_bound(hi, imin, imax)
        else:
            # decreasing: f(i) <= hi for large i, f(i) >= lo for small i.
            # Negate to reuse the increasing searches.
            neg = MonotoneF(lambda i: -self.fn(i), 1, f"-{self.name}")
            return neg.preimage(-hi, -lo, imin, imax)
        return _clip(jmin, jmax, imin, imax)

    def image_bounds(self, imin: int, imax: int) -> Tuple[int, int]:
        v1, v2 = self(imin), self(imax)
        return (v1, v2) if v1 <= v2 else (v2, v1)


class ModularF(IFunc):
    """``f(i) = g(i) mod z + d`` with monotone increasing ``g`` (§3.3).

    Covers rotate and shuffle style views, e.g. ``f(i) = (i+6) mod 20``.
    The function is piece-wise monotone; ``pieces`` splits ``[imin, imax]``
    at the breakpoints (where ``g(i) div z`` increments) into segments on
    which ``f(i) = g(i) - z.k + d`` is plain monotone, matching the paper's
    range-splitting treatment.
    """

    def __init__(self, g: IFunc, z: int, d: int = 0):
        if z <= 0:
            raise ValueError("modulus z must be positive")
        self.g = g
        self.z = int(z)
        self.d = int(d)
        self.name = f"({g.name}) mod {z}" + (f" + {d}" if d else "")

    def __call__(self, i: int) -> int:
        return self.g(i) % self.z + self.d

    def monotone_direction(self, imin: int, imax: int) -> int:
        gmin, gmax = self.g(imin), self.g(imax)
        return 1 if gmin // self.z == gmax // self.z else 0

    def derivative_bound(self, imin: int, imax: int) -> float:
        return self.g.derivative_bound(imin, imax)

    def is_injective_on(self, imin: int, imax: int) -> bool:
        """Injectivity criterion of §3.3: ``z > g(imax) - g(imin)``."""
        return self.z > self.g(imax) - self.g(imin)

    def breakpoints(self, imin: int, imax: int) -> List[int]:
        """All ``i_b`` in ``(imin, imax]`` where ``g(i) div z`` increments.

        Each returned ``i_b`` is the first index of a new monotone piece.
        """
        if imin > imax:
            return []
        kmin = floor_div(self.g(imin), self.z)
        kmax = floor_div(self.g(imax), self.z)
        bps: List[int] = []
        lo = imin
        for k in range(kmin + 1, kmax + 1):
            # first i with g(i) >= k*z — binary search on monotone g
            target = k * self.z
            a, b = lo, imax
            while a < b:
                mid = (a + b) // 2
                if self.g(mid) >= target:
                    b = mid
                else:
                    a = mid + 1
            bps.append(a)
            lo = a
        return bps

    def pieces(self, imin: int, imax: int) -> List[Tuple[int, int, IFunc]]:
        """Monotone segments ``(seg_lo, seg_hi, f_k)`` covering
        ``[imin, imax]`` with ``f_k(i) = g(i) - z.k + d`` on each segment."""
        if imin > imax:
            return []
        cuts = [imin] + self.breakpoints(imin, imax) + [imax + 1]
        out: List[Tuple[int, int, IFunc]] = []
        for lo, nxt in zip(cuts, cuts[1:]):
            hi = nxt - 1
            if lo > hi:
                continue
            k = floor_div(self.g(lo), self.z)
            shift = -self.z * k + self.d
            if isinstance(self.g, AffineF):
                piece: IFunc = AffineF(self.g.a, self.g.c + shift)
            elif isinstance(self.g, ConstantF):
                piece = ConstantF(self.g.c + shift)
            else:
                gg = self.g
                piece = MonotoneF(
                    lambda i, gg=gg, shift=shift: gg(i) + shift,
                    1,
                    f"{self.g.name}{shift:+d}",
                )
            out.append((lo, hi, piece))
        return out

    def preimage(self, lo: int, hi: int, imin: int, imax: int) -> Ranges:
        ranges: Ranges = []
        for seg_lo, seg_hi, piece in self.pieces(imin, imax):
            ranges.extend(piece.preimage(lo, hi, seg_lo, seg_hi))
        return _merge(ranges)

    def image_bounds(self, imin: int, imax: int) -> Tuple[int, int]:
        los, his = [], []
        for seg_lo, seg_hi, piece in self.pieces(imin, imax):
            a, b = piece.image_bounds(seg_lo, seg_hi)
            los.append(a)
            his.append(b)
        return min(los), max(his)

    def compose(self, inner: "IFunc") -> "IFunc":
        # (g mod z + d) ∘ h = (g∘h) mod z + d, provided g∘h stays
        # monotone increasing (the ModularF contract).
        composed_g = self.g.compose(inner)
        if isinstance(composed_g, AffineF) and composed_g.a > 0:
            return ModularF(composed_g, self.z, self.d)
        if isinstance(composed_g, ConstantF):
            return ConstantF(composed_g.c % self.z + self.d)
        return ComposedF(self, inner)


class IndirectF(IFunc):
    """``f(i) = T[i]`` — indirection through a run-time integer table.

    The §3 case where the access "depends on values of the array
    elements": nothing about ``T`` is known at compile time, so no
    Table I closed form applies; the inspector/executor machinery
    (:mod:`repro.codegen.inspector`) handles it at run time.
    """

    def __init__(self, table, name: str = "T"):
        self.table = np.asarray(table, dtype=np.int64)
        self.name = f"{name}[i]"

    def __call__(self, i: int) -> int:
        return int(self.table[i])

    def monotone_direction(self, imin: int, imax: int) -> int:
        vals = self.table[imin:imax + 1]
        if len(vals) < 2:
            return 1
        diffs = vals[1:] - vals[:-1]
        if (diffs > 0).all():
            return 1
        if (diffs < 0).all():
            return -1
        return 0

    def derivative_bound(self, imin: int, imax: int) -> float:
        vals = self.table[imin:imax + 1]
        if len(vals) < 2:
            return 0.0
        return float(abs(vals[1:] - vals[:-1]).max())

    def preimage(self, lo: int, hi: int, imin: int, imax: int) -> Ranges:
        out: Ranges = []
        for i in range(max(imin, 0), min(imax, len(self.table) - 1) + 1):
            if lo <= self.table[i] <= hi:
                out.append((i, i))
        return _merge(out)

    def image_bounds(self, imin: int, imax: int) -> Tuple[int, int]:
        vals = self.table[imin:imax + 1]
        return int(vals.min()), int(vals.max())


class ComposedF(IFunc):
    """``outer ∘ inner`` for classes with no closed-form simplification."""

    def __init__(self, outer: IFunc, inner: IFunc):
        self.outer = outer
        self.inner = inner
        self.name = f"{outer.name}∘{inner.name}"

    def __call__(self, i: int) -> int:
        return self.outer(self.inner(i))

    def monotone_direction(self, imin: int, imax: int) -> int:
        di = self.inner.monotone_direction(imin, imax)
        if di == 0:
            return 0
        lo, hi = self.inner.image_bounds(imin, imax)
        do = self.outer.monotone_direction(lo, hi)
        return di * do

    def derivative_bound(self, imin: int, imax: int) -> float:
        lo, hi = self.inner.image_bounds(imin, imax)
        return self.inner.derivative_bound(imin, imax) * self.outer.derivative_bound(
            lo, hi
        )

    def preimage(self, lo: int, hi: int, imin: int, imax: int) -> Ranges:
        glo, ghi = self.inner.image_bounds(imin, imax)
        mids = self.outer.preimage(lo, hi, glo, ghi)
        out: Ranges = []
        for mlo, mhi in mids:
            out.extend(self.inner.preimage(mlo, mhi, imin, imax))
        return _merge(out)

    def image_bounds(self, imin: int, imax: int) -> Tuple[int, int]:
        lo, hi = self.inner.image_bounds(imin, imax)
        return self.outer.image_bounds(lo, hi)


def classify(f: IFunc) -> str:
    """Table I row selector: the access-function class name."""
    if isinstance(f, ConstantF):
        return "constant"
    if isinstance(f, AffineF):
        if f.a == 1:
            return "shift"  # i + c
        return "affine"  # a*i + c
    if isinstance(f, ModularF):
        return "modular"
    if isinstance(f, MonotoneF):
        return "monotone"
    if isinstance(f, IndirectF):
        return "indirect"
    return "general"


def apply_ifunc(f, ivec: np.ndarray) -> np.ndarray:
    """Apply index function *f* over an int64 vector.

    Affine/modular/composed functions broadcast as plain arithmetic; an
    opaque callable that cannot take an ndarray falls back to an
    element-wise sweep (still correct, just not fast).
    """
    try:
        out = f(ivec)
    except Exception:
        out = None
    if isinstance(out, np.ndarray) and out.shape == ivec.shape:
        return out.astype(np.int64, copy=False)
    if np.isscalar(out) and ivec.size:
        # e.g. ConstantF: one value for every index
        return np.full(ivec.shape, int(out), dtype=np.int64)
    return np.fromiter(
        (f(int(i)) for i in ivec), dtype=np.int64, count=ivec.size
    )
