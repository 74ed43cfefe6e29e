"""Regions: the one key type and the one set algebra of the compiler.

Table I hands every node its membership as a few arithmetic
progressions ``gen_p(t) = x_p + stride·t``.  A **key** keeps one axis of
such a set in one of three forms: a ``slice`` when the axis is one
progression, a :class:`TwoLevel` ``outer ⊗ inner`` for a run of equal
courses (multi-course BS(b): Theorem 2's course ``k`` and offset
``t``), an int64 vector for the irregular remainder (modular
breakpoints, non-injective maps, clipped courses).  A :class:`Region`
is a tuple of keys — one per array axis — laid over a block of lanes:
all-slice regions address memory by basic slicing (a view), anything
else through ``np.ix_`` (a copy), so a slice is the special case of the
one mechanism and not a fast path beside it.

Every compile-time membership computation — the kernels' lane plans,
`split-interior`, the §2.9 barrier proof, the static analyses,
redistribution plans (:mod:`repro.decomp.dynamic`) — runs on keys
through :func:`meet` (∩), :func:`minus` (∖), :func:`join` (∪),
:func:`image`, :func:`compose` and :func:`locate`: O(1) on progressions,
one congruence per level on two-level keys, exact vector arithmetic
elsewhere; every communication set (kernel halo moves, redistribution)
is one :func:`exchange`.  Table I builds each enumeration's key itself
(:mod:`repro.sets.enumerators`).

Row-major order over a region is the lexicographic lane order every
executor and message payload uses.  Vectors are built here and nowhere
else: a :class:`Region` unrolls a two-level key, and
:meth:`Region.index_vectors` materializes lane vectors lazily for the
consumers that truly need them (guarded or non-injective stores).
"""

from __future__ import annotations

import math
from itertools import product
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.ifunc import AffineF, ConstantF, apply_ifunc

__all__ = ["Key", "Region", "TwoLevel", "prog", "tiles", "klen", "vec",
           "chain", "compress", "compose", "exchange", "join", "locate",
           "meet", "minus", "image", "overhang", "overlap", "span"]

_BIG = 1 << 62


class TwoLevel(NamedTuple):
    """``outer ⊗ inner``: ``start + ostep·k + istep·t`` (``k < ocount``,
    ``t < icount``) course after course, the inner span shorter than the
    outer step — strictly monotone, never one progression (:func:`tiles`)."""

    start: int
    ostep: int
    ocount: int
    istep: int
    icount: int

    @property
    def size(self) -> int:
        return self.ocount * self.icount

    def __setitem__(self, pos, value):
        raise ValueError("keys are read-only")  # as a shared vector key


Key = Union[slice, TwoLevel, np.ndarray]


def prog(start: int, step: int, count: int) -> Key:
    """The progression ``start, start+step, …`` (*count* terms) as a key.

    A zero stride collapses to its one element (the axis broadcasts over
    its lanes); a progression touching a negative index stays a vector,
    because a negative slice bound wraps instead of addressing it."""
    if count <= 0:
        return slice(0, 0, 1)
    if step == 0 or count == 1:
        step, count = 1, 1
    last = start + step * (count - 1)
    if start < 0 or last < 0:
        return start + step * np.arange(count, dtype=np.int64)
    if step > 0:
        return slice(start, last + 1, step)
    return slice(start, last - 1 if last else None, step)


def tiles(start: int, ostep: int, ocount: int, istep: int,
          icount: int) -> Key:
    """``{start + ostep·k + istep·t}`` as a key: a :class:`TwoLevel`, or a
    progression when one course, one offset or touching courses make it."""
    if min(ocount, icount) <= 1 or ostep == istep * icount:
        return prog(start, istep if icount > 1 else ostep,
                    max(ocount, 0) * max(icount, 0))
    return TwoLevel(start, ostep, ocount, istep, icount)


def _unroll(key: TwoLevel) -> np.ndarray:
    """The members of a two-level key as an int64 vector."""
    return (key.start + key.ostep * np.arange(key.ocount, dtype=np.int64)[
        :, None] + key.istep * np.arange(key.icount, dtype=np.int64)).ravel()


def _ssc(key: slice) -> Tuple[int, int, int]:
    """``(start, step, count)`` of a slice read as a literal progression
    (no wrap-around: a negative bound is a negative index)."""
    step = 1 if key.step is None else key.step
    start = 0 if key.start is None else key.start
    stop = key.stop if key.stop is not None else (-1 if step < 0 else _BIG)
    return start, step, len(range(start, stop, step))


def klen(key: Key) -> int:
    return _ssc(key)[2] if isinstance(key, slice) else int(key.size)


def vec(key: Key) -> np.ndarray:
    """The key's elements as an int64 vector."""
    if isinstance(key, slice):
        start, step, count = _ssc(key)
        return start + step * np.arange(count, dtype=np.int64)
    return _unroll(key) if isinstance(key, TwoLevel) else key


def _ends(key: Key) -> Tuple[int, int]:
    """The first and last element of a non-empty key."""
    if isinstance(key, np.ndarray):
        return int(key[0]), int(key[-1])
    if isinstance(key, slice):
        start, step, count = _ssc(key)
        return start, start + step * (count - 1)
    return key.start, key.start + key.ostep * (key.ocount - 1) \
        + key.istep * (key.icount - 1)


def compress(v: np.ndarray) -> Key:
    """An int64 vector as a key: a slice when it is one progression."""
    v = np.asarray(v, dtype=np.int64)
    if v.size <= 1:
        return prog(int(v[0]) if v.size else 0, 1, v.size)
    step = int(v[1] - v[0])
    if (np.diff(v) == step).all():
        return prog(int(v[0]), step, v.size)
    return v


def compose(base: Key, pos: Key) -> Key:
    """``base[pos]`` as a key."""
    if isinstance(base, TwoLevel):
        k, t = np.divmod(vec(pos), base.icount)
        return compress(base.start + base.ostep * k + base.istep * t)
    if not isinstance(base, slice):
        return compress(base[vec(pos) if isinstance(pos, TwoLevel) else pos])
    b0, bs, _ = _ssc(base)
    if isinstance(pos, TwoLevel):
        return tiles(b0 + bs * pos.start, bs * pos.ostep, pos.ocount,
                     bs * pos.istep, pos.icount)
    if isinstance(pos, slice):
        p0, ps, pn = _ssc(pos)
        return prog(b0 + bs * p0, bs * ps, pn)
    return compress(b0 + bs * pos)


def meet(a: Key, b: Key) -> Key:
    """The members two ascending (sorted, distinct) keys share: two
    progressions meet in a progression (one congruence, O(1)), a
    two-level key one in one congruence per level; a vector is filtered."""
    if isinstance(a, slice) and isinstance(b, slice):
        if a == b:  # e.g. an access's in-bounds band and its whole span
            return a
        (a0, s, an), (b0, t, bn) = _ssc(a), _ssc(b)
        g = math.gcd(s, t)
        if not an or not bn or (b0 - a0) % g:
            return prog(0, 1, 0)
        # a0 + s.u = b0 (mod t): the first common term from a0 on
        u = (b0 - a0) // g * pow(s // g, -1, t // g) % (t // g)
        first, lcm = a0 + s * u, s // g * t
        first += lcm * max(0, -((first - max(a0, b0)) // lcm))
        last = min(a0 + s * (an - 1), b0 + t * (bn - 1))
        return prog(first, lcm, (last - first) // lcm + 1)
    if isinstance(a, slice) or isinstance(b, TwoLevel):
        a, b = b, a
    if isinstance(a, TwoLevel):
        both = _meet2(a, b)
        if both is not None:
            return both
        a = vec(a)
    if isinstance(b, slice):
        b0, t, bn = _ssc(b)
        return compress(
            a[(a >= b0) & (a <= b0 + t * (bn - 1)) & ((a - b0) % t == 0)])
    return compress(np.intersect1d(a, vec(b), assume_unique=True))


def exchange(need: Sequence[Sequence[Key]], own: Sequence[Sequence[Key]]
             ) -> Dict[Tuple[int, int], List[Key]]:
    """What node *q* takes from node *p*: per axis the :func:`meet` of
    what *q* needs (``need[q]``, one ascending key per axis) and what *p*
    owns (``own[p]``), ``{(q, p): keys}`` for every pair that meets on
    every axis — an empty axis ends its pair.  O(P²) key operations."""
    out = {}
    for (q, wants), (p, has) in product(enumerate(need), enumerate(own)):
        both = []
        for x, y in zip(wants, has):
            both.append(meet(x, y))
            if not klen(both[-1]):
                break
        else:
            out[q, p] = both
    return out


def _meet2(a: TwoLevel, b: Key) -> Optional[Key]:
    """:func:`meet` of a two-level key with a progression or a two-level
    key of its period in closed form (``None``: no one key holds it)."""
    if isinstance(b, slice):
        b0, t, bn = _ssc(b)
        # b's residue class against one course, or against the starts
        inner = a.ostep % t == 0
        if not bn or not inner and a.istep % t:
            return None if bn else prog(0, 1, 0)
        r = a.start + (b0 - a.start) % t
        keep = meet(prog(a.start, a.istep, a.icount) if inner else
                    prog(a.start, a.ostep, a.ocount),
                    prog(r, t, (_ends(a)[1] - r) // t + 1))
        if not isinstance(keep, slice):  # negative members
            return None
        s0, ss, sn = _ssc(keep)
        return _clip(tiles(s0, a.ostep, a.ocount, ss, sn) if inner else
                     tiles(s0, ss, sn, a.istep, a.icount),
                     b0, b0 + t * (bn - 1))
    if not isinstance(b, TwoLevel) or b.ostep != a.ostep:
        return None
    # b's course k' starts r into a's course k' + q, maybe reaching k' + q + 1
    q, r = divmod(b.start - a.start, a.ostep)
    hits = [(j, both) for j in (0, 1) if klen(both := meet(
        prog(a.ostep * j, a.istep, a.icount), prog(r, b.istep, b.icount)))]
    if len(hits) != 1:
        return None if hits else prog(0, 1, 0)
    (j, both), = hits
    s0, ss, sn = _ssc(both)  # offsets into a's course k' + q
    k0, k1 = max(0, q + j), min(a.ocount, b.ocount + q + j)
    return tiles(a.start + a.ostep * (k0 - j) + s0, a.ostep, k1 - k0, ss, sn)


def _clip(key: Key, lo: int, hi: int) -> Optional[Key]:
    """The members of an ascending slice or two-level key within
    ``[lo, hi]`` — ``None`` when that is part of a course beside others."""
    if isinstance(key, slice):  # no negative members
        return meet(key, prog(max(lo, 0), 1, hi - max(lo, 0) + 1))
    s, o, span = key.start, key.ostep, key.istep * (key.icount - 1)
    ka = max(0, -((s + span - lo) // o))     # first course reaching lo
    kb = min(key.ocount - 1, (hi - s) // o)  # last course starting <= hi
    if ka <= kb and (s + o * ka < lo or s + o * kb + span > hi):
        return None
    return tiles(s + o * ka, o, kb - ka + 1, key.istep, key.icount)


def minus(a: Key, b: Key) -> Key:
    """The members of ascending key *a* that ascending key *b* lacks: a
    progression or two-level key losing a run at one end keeps its form
    (O(1)); anything else is one ``setdiff1d``."""
    both = meet(a, b)
    lost, left = klen(both), klen(a) - klen(both)
    if not left:
        return prog(0, 1, 0)
    if not lost:
        return compress(a) if isinstance(a, np.ndarray) else a
    (a0, a1), (b0, b1) = _ends(a), _ends(both)
    if not isinstance(a, np.ndarray) and (a0 == b0 or a1 == b1):
        rest = _clip(a, b1 + 1, a1) if a0 == b0 else _clip(a, a0, b0 - 1)
        if rest is not None and klen(rest) == left:
            return rest
    return compress(np.setdiff1d(vec(a), vec(both), assume_unique=True))


def join(keys: Sequence[Key]) -> Key:
    """The members any of the ascending *keys* holds, ascending:
    :func:`chain` where it applies, else one sort of their elements."""
    joined = chain(keys)
    return joined if joined is not None else compress(np.unique(
        np.concatenate([vec(k) for k in keys if klen(k)])))


def chain(keys: Sequence[Key]) -> Optional[Key]:
    """:func:`join` in closed form (O(1) per progression): the one key
    when the non-empty *keys* all are that key, the one progression when
    they are progressions of one step, each starting where the one
    before ends; else ``None``."""
    keys = [k for k in keys if klen(k)]
    if not keys:
        return prog(0, 1, 0)
    first = keys[0]
    if all(type(k) is type(first) and (
            np.array_equal(k, first) if isinstance(k, np.ndarray)
            else k == first) for k in keys[1:]):
        return first
    if not all(isinstance(k, slice) for k in keys):
        return None
    (start, step, count), *rest = sorted({_ssc(k) for k in keys})
    for s, st, c in rest:
        if st != step or s != start + step * count:
            return None
        count += c
    return prog(start, step, count)


def span(key: Key) -> Optional[Tuple[int, int]]:
    """The ``(min, max)`` element of a key (``None`` when empty) — from a
    progression's or two-level key's ends, a vector's min and max."""
    if not klen(key):
        return None
    if isinstance(key, np.ndarray):
        return int(key.min()), int(key.max())
    return tuple(sorted(_ends(key)))


def overlap(a: Sequence[Key], b: Sequence[Key]) -> Optional[Tuple[int, ...]]:
    """The smallest element two products of keys (one key per axis) both
    hold (``None``: disjoint) — they intersect iff their keys meet on
    every axis, so this is O(1) per progression-keyed axis."""
    first = []
    for x, y in zip(a, b):
        both = meet(_ascending(x), _ascending(y))
        if not klen(both):
            return None
        first.append(_ends(both)[0])
    return tuple(first)


def _ascending(key: Key) -> Key:
    """The key's distinct elements in ascending order (what
    :func:`meet` takes)."""
    if isinstance(key, TwoLevel):
        return key if key.ostep > 0 else TwoLevel(
            _ends(key)[1], -key.ostep, key.ocount, -key.istep, key.icount)
    if not isinstance(key, slice):  # most vector keys are built sorted
        return key if (np.diff(key) > 0).all() else np.unique(key)
    start, step, count = _ssc(key)
    return key if step > 0 else prog(start + step * (count - 1), -step, count)


def locate(sub: Key, base: Key) -> Key:
    """Positions of *sub*'s elements within the ascending key *base*
    (``sub ⊆ base``) — the inverse of :func:`compose`."""
    if isinstance(base, TwoLevel):
        k, r = np.divmod(vec(sub) - base.start, base.ostep)
        return compress(k * base.icount + r // base.istep)
    if not isinstance(base, slice):
        return compress(np.searchsorted(base, vec(sub)))
    b0, bs, _ = _ssc(base)
    if isinstance(sub, TwoLevel):
        return tiles((sub.start - b0) // bs, sub.ostep // bs, sub.ocount,
                     sub.istep // bs, sub.icount)
    if isinstance(sub, slice):
        s0, ss, sn = _ssc(sub)
        return prog((s0 - b0) // bs, ss // bs, sn)
    return compress((sub - b0) // bs)


def image(f, key: Key) -> Key:
    """``f`` over a key of loop indices: affine functions map a
    progression to a progression and a two-level key to a two-level key
    in O(1); anything else is evaluated element-wise and re-compressed."""
    if not isinstance(key, np.ndarray) and isinstance(f, (AffineF, ConstantF)):
        a = getattr(f, "a", 0)
        if isinstance(key, slice):
            i0, st, n = _ssc(key)
            return prog(a * i0 + f.c, a * st, n)
        return tiles(a * key.start + f.c, a * key.ostep, key.ocount,
                     a * key.istep, key.icount)  # a = 0: one element
    return compress(apply_ifunc(f, vec(key)))


def overhang(key: Key, own: Key, loc: Key) -> Optional[Tuple[int, int]]:
    """Ghost widths of one array axis: how many elements the unit-stride
    run *key* (either direction) reaches below and above the unit-stride
    run *own* it meets, *own* sitting in slots ``0, 1, …`` (*loc*) —
    ``None`` for any other shape: nothing a margin beside the owned
    block could hold."""
    if not (isinstance(key, slice) and isinstance(own, slice)
            and isinstance(loc, slice) and loc.start in (0, None)
            and loc.step in (1, None)):
        return None
    (k0, ks, kn), (o0, os, on) = _ssc(key), _ssc(own)
    lo, hi = (k0, k0 + kn - 1) if ks > 0 else (k0 - kn + 1, k0)
    if abs(ks) != 1 or os != 1 or not (kn and on) or hi < o0 or lo >= o0 + on:
        return None
    return max(0, o0 - lo), max(0, hi - (o0 + on - 1))


class Region:
    """Keys (one per array axis) over a block of lanes of *shape* (one
    extent per loop dim); array axis *k* is fed by lane axis
    ``dims[k]``."""

    __slots__ = ("keys", "dims", "shape", "size", "sliced", "view", "_index",
                 "_kshape", "_perm", "_expand", "_vecs", "_box")

    def __init__(self, keys: Sequence[Key], dims: Sequence[int],
                 shape: Sequence[int]):
        self.keys = tuple(_unroll(k) if isinstance(k, TwoLevel) else k
                          for k in keys)
        self.dims = tuple(dims)
        self.shape = tuple(int(n) for n in shape)
        self.size = math.prod(self.shape)
        #: every key is a slice: basic indexing, :meth:`take` is a view
        self.sliced = all(isinstance(k, slice) for k in self.keys)
        self._kshape = tuple(klen(k) for k in self.keys)
        self._index = self.keys if self.sliced \
            else np.ix_(*(vec(k) for k in self.keys))
        order = sorted(range(len(self.dims)), key=self.dims.__getitem__)
        self._perm = None if order == list(range(len(order))) else order
        self._expand = None if len(self.dims) == len(self.shape) else tuple(
            slice(None) if d in self.dims else None
            for d in range(len(self.shape)))
        #: :meth:`take` is a writable view holding each lane exactly once
        self.view = self.sliced and self._expand is None and all(
            n == self.shape[d] for n, d in zip(self._kshape, self.dims))
        self._vecs: Optional[tuple] = None
        self._box: Optional[tuple] = None  # :meth:`_flat_box`, on first use

    def __reduce__(self):
        # an install payload carries the keys, never the derived vectors
        return Region, (self.keys, self.dims, self.shape)

    @property
    def nbytes(self) -> int:
        """Resident bytes of the vector keys (slices cost nothing)."""
        held = () if self.sliced else self._index
        return sum(int(a.nbytes) for a in held + (self._vecs or ()))

    def take(self, arr: np.ndarray) -> np.ndarray:
        """*arr* over this region, laid along the lane axes
        (broadcastable to ``shape``)."""
        v = arr[self._index]
        if v.shape != self._kshape:
            # a past-the-end slice clips silently where a vector raises
            raise IndexError(f"region {self.keys} escapes an array of "
                             f"shape {arr.shape}")
        if self._perm is not None:
            v = v.transpose(self._perm)
        return v if self._expand is None else v[self._expand]

    def _flat_box(self) -> tuple:
        """Per axis the ``[start, stop)`` of a :attr:`flat` region (empty
        for any other), worked out on first use."""
        if self._box is None:
            self._box = tuple(
                (start, start + count) for start, _, count
                in map(_ssc, self.keys)) if self.view and self._perm is None \
                and all(k.step in (1, None) for k in self.keys) else ()
        return self._box

    @property
    def flat(self) -> bool:
        """A view over every lane with unit-stride keys in lane order: the
        lanes are one run of a C-contiguous array (:meth:`span`)."""
        return bool(self._flat_box())

    def span(self, arr: np.ndarray, length: int) -> np.ndarray:
        """*length* elements of the C-contiguous *arr* read flat from this
        :attr:`flat` region's first lane: a basic slice of
        ``arr.reshape(-1)`` (a view, never a copy), which holds every lane
        when *length* reaches the last.  The cells between two lane rows
        (padding) are *arr*'s own, so a span never leaves its buffer; a
        region or length that would clip raises, as :meth:`take` does."""
        box = self._flat_box()
        if not (box and arr.flags.c_contiguous and arr.ndim == len(box)):
            raise ValueError(f"region {self.keys} is no flat run of an "
                             f"array of shape {arr.shape}")
        first = 0
        for (start, stop), n in zip(box, arr.shape):
            if stop > n:
                raise IndexError(f"region {self.keys} escapes an array of "
                                 f"shape {arr.shape}")
            first = first * n + start
        if first + length > arr.size:
            raise IndexError(f"a {length}-lane span of region {self.keys} "
                             f"escapes an array of shape {arr.shape}")
        return arr.reshape(-1)[first:first + length]

    def full(self, arr: np.ndarray) -> np.ndarray:
        """:meth:`take` with every lane present (broadcast axes filled,
        read-only)."""
        v = self.take(arr)
        return v if v.shape == self.shape else np.broadcast_to(v, self.shape)

    def put(self, arr: np.ndarray, values) -> None:
        """``arr[region] = values``, *values* in lane layout: through the
        view where the region is one, else for lane positions."""
        if self.sliced:
            self.take(arr)[...] = values
        else:
            arr[self._index] = values

    def store(self, out: np.ndarray, values, mask=None) -> int:
        """Store one value per lane (where *mask*), last lane wins on a
        repeated address; returns the number of stores."""
        values = np.asarray(values, dtype=np.float64)
        if mask is not None:
            mask = np.broadcast_to(np.asarray(mask, dtype=bool), self.shape)
        if self.view:
            np.copyto(self.take(out), values, casting="unsafe",
                      where=True if mask is None else mask)
            return self.size if mask is None else int(np.count_nonzero(mask))
        keys = self.index_vectors()
        values = np.broadcast_to(values, self.shape).ravel()
        if mask is not None:
            mask = mask.ravel()
            keys, values = tuple(a[mask] for a in keys), values[mask]
        out[keys if len(keys) > 1 else keys[0]] = values
        return int(values.size)

    def grids(self, used=None) -> Tuple[Optional[np.ndarray], ...]:
        """Open-grid index vectors, one per key along its lane axis
        (``None`` for an axis outside *used*, when given)."""
        n = len(self.shape)
        return tuple(None if used is not None and d not in used else
                     vec(k).reshape([-1 if e == d else 1 for e in range(n)])
                     for k, d in zip(self.keys, self.dims))

    def index_vectors(self) -> Tuple[np.ndarray, ...]:
        """Per array axis the int64 index of every lane, row-major over
        ``shape`` — built on first use, then kept."""
        if self._vecs is None:
            self._vecs = tuple(  # owned: kept across every store
                np.array(np.broadcast_to(g, self.shape)).ravel()
                for g in self.grids())
        return self._vecs
