"""Shared machinery of the four analyses.

Everything here answers a question about one scalar access function over
one inclusive loop range, preferring the paper's closed forms (affine
images as progression keys of :mod:`repro.pipeline.region`, exact
``preimage`` bands, the §3.3 injectivity criterion) and falling back to
bounded enumeration for opaque functions.
The enumeration budget keeps the verifier from hanging on astronomically
large domains — analyses report ``CHK001`` when they hit it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.ifunc import AffineF, ConstantF, IFunc, ModularF, MonotoneF
from ..pipeline.region import compose, image, klen, meet, prog, vec

__all__ = [
    "ENUM_BUDGET",
    "BudgetExceeded",
    "range_count",
    "injective_on",
    "find_duplicate",
    "image_violation",
    "loop_carried_pair",
    "first_members",
]

#: largest index range the enumeration fallback will walk
ENUM_BUDGET = 1 << 20


class BudgetExceeded(Exception):
    """An enumeration fallback would exceed :data:`ENUM_BUDGET`."""

    def __init__(self, what: str):
        super().__init__(what)
        self.what = what


def range_count(lo: int, hi: int) -> int:
    return max(0, hi - lo + 1)


def _check_budget(lo: int, hi: int, what: str) -> None:
    if range_count(lo, hi) > ENUM_BUDGET:
        raise BudgetExceeded(what)


def first_members(key, cap: int) -> List[int]:
    """Up to *cap* leading members of a key — witnesses sampled without
    materializing a large set."""
    return vec(compose(key, prog(0, 1, min(cap, klen(key))))).tolist()


def injective_on(f: IFunc, lo: int, hi: int) -> Optional[bool]:
    """Is *f* injective on ``[lo, hi]``?  ``None`` means undecided
    (caller enumerates)."""
    if hi <= lo:
        return True
    if isinstance(f, ConstantF):
        return False
    if isinstance(f, AffineF):  # a != 0 by construction
        return True
    if isinstance(f, ModularF):
        # §3.3 criterion is sufficient, not necessary: fall through to
        # enumeration when it does not hold.
        return True if f.is_injective_on(lo, hi) else None
    if isinstance(f, MonotoneF):
        return True  # monotone injective by contract
    return None


def find_duplicate(f: IFunc, lo: int, hi: int) -> Optional[Tuple[int, int, int]]:
    """First ``(i1, i2, element)`` with ``i1 < i2`` and ``f(i1) == f(i2)``,
    by enumeration; ``None`` when *f* is injective on the range."""
    _check_budget(lo, hi, f"duplicate scan of {f.name}")
    seen: dict = {}
    for i in range(lo, hi + 1):
        v = f(i)
        if v in seen:
            return seen[v], i, v
        seen[v] = i
    return None


def image_violation(f: IFunc, lo: int, hi: int, n: int) -> Optional[int]:
    """Smallest ``i`` in ``[lo, hi]`` with ``f(i)`` outside ``[0, n)``,
    or ``None`` when the whole image is in bounds.

    Uses the exact integer ``preimage`` of the valid band (closed form
    for constant/affine/modular/monotone classes); enumerates otherwise.
    """
    if lo > hi:
        return None
    try:
        ok = f.preimage(0, n - 1, lo, hi)
    except NotImplementedError:
        ok = None
    if ok is None:
        _check_budget(lo, hi, f"bounds scan of {f.name}")
        for i in range(lo, hi + 1):
            if not (0 <= f(i) < n):
                return i
        return None
    covered = sum(h - l + 1 for l, h in ok)
    if covered >= range_count(lo, hi):
        return None
    cursor = lo
    for l, h in ok:  # disjoint increasing ranges
        if cursor < l:
            return cursor
        cursor = max(cursor, h + 1)
    return cursor if cursor <= hi else None


def loop_carried_pair(
    f: IFunc, g: IFunc, lo: int, hi: int
) -> Optional[Tuple[int, int, int]]:
    """A witness ``(i_write, i_read, element)`` with ``i_write != i_read``
    and ``f(i_write) == g(i_read)`` over ``[lo, hi]`` — the Bernstein
    write/read overlap between two distinct parameter instances.

    Closed form for affine/constant pairs (the two images are
    progressions and meet in one; at most one common element can be the
    harmless coincident instance, so probing the first few members is
    exact); bounded enumeration otherwise.
    """
    if lo > hi:
        return None
    if isinstance(f, AffineF) and isinstance(g, AffineF):
        if (f.a, f.c) == (g.a, g.c):
            return None  # f(i1) = g(i2) forces i1 = i2: no carried pair
        # both images ascending: a falling function walks the range down
        up, down = prog(lo, 1, hi - lo + 1), prog(hi, -1, hi - lo + 1)
        common = meet(image(f, up if f.a > 0 else down),
                      image(g, up if g.a > 0 else down))
        # i1 = (e - f.c)/f.a and i2 = (e - g.c)/g.a collide for at most
        # one e, so any two members of the intersection contain a witness.
        for e in first_members(common, 3):
            i1 = (e - f.c) // f.a
            i2 = (e - g.c) // g.a
            if i1 != i2:
                return i1, i2, e
        return None
    if isinstance(f, ConstantF):
        # every instance writes f.c: any reader of f.c plus any other
        # instance is a witness
        for i2 in _solve(g, f.c, lo, hi):
            i1 = lo if i2 != lo else lo + 1
            if i1 <= hi:
                return i1, i2, f.c
        return None
    if isinstance(g, ConstantF):
        for i1 in _solve(f, g.c, lo, hi):
            i2 = lo if i1 != lo else lo + 1
            if i2 <= hi:
                return i1, i2, g.c
        return None
    _check_budget(lo, hi, f"dependence scan of {f.name} vs {g.name}")
    writers: dict = {}
    for i in range(lo, hi + 1):
        slot = writers.setdefault(f(i), [])
        if len(slot) < 2:  # two writers always include one != any reader
            slot.append(i)
    for i2 in range(lo, hi + 1):
        for i1 in writers.get(g(i2), ()):
            if i1 != i2:
                return i1, i2, g(i2)
    return None


def _solve(f: IFunc, v: int, lo: int, hi: int) -> List[int]:
    try:
        return f.solve(v, lo, hi)
    except NotImplementedError:
        _check_budget(lo, hi, f"solve scan of {f.name}")
        return [i for i in range(lo, hi + 1) if f(i) == v]
