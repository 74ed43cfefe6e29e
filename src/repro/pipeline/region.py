"""Regions: the one key type and the one set algebra of the compiler.

Table I hands every node its membership as a few arithmetic
progressions ``gen_p(t) = x_p + stride·t``.  A **key** keeps one axis of
such a set in the form NumPy indexes fastest: a ``slice`` when the axis
is one progression, an int64 vector for the irregular remainder
(multi-course BS(b), modular breakpoints, non-injective maps).  A
:class:`Region` is a tuple of keys — one per array axis — laid over a
block of lanes: all-slice regions address memory by basic slicing (a
view), anything else through ``np.ix_`` (a copy), so a slice is the
special case of the one mechanism and not a fast path beside it.

Every compile-time membership computation — the kernels' lane plans,
`split-interior`, the §2.9 barrier proof, the static analyses — runs on
keys through :func:`meet` (∩), :func:`minus` (∖), :func:`image`,
:func:`compose` and :func:`locate`, O(1) on progressions; ``Segment``
lists are what Table I emits and prints, converted once by
:func:`key_of`.

Row-major order over a region is the lexicographic lane order every
executor and message payload uses.  Vectors are built here and nowhere
else: :meth:`Region.index_vectors` / :meth:`Region.flat` materialize
them lazily for the consumers that truly need lanes (the njit entry,
guarded or non-injective stores).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..core.ifunc import AffineF, ConstantF, apply_ifunc

__all__ = ["Key", "Region", "prog", "klen", "vec", "compress", "key_of",
           "compose", "locate", "meet", "minus", "image", "overhang"]

Key = Union[slice, np.ndarray]

_BIG = 1 << 62


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
    return key


def compress(v: np.ndarray) -> Key:
    """An int64 vector as a key: a slice when it is one progression."""
    v = np.asarray(v, dtype=np.int64)
    if v.size <= 1:
        return prog(int(v[0]) if v.size else 0, 1, v.size)
    step = int(v[1] - v[0])
    if (np.diff(v) == step).all():
        return prog(int(v[0]), step, v.size)
    return v


def key_of(segments: Sequence) -> Key:
    """The (sorted, distinct) members of a Table I segment list as a key —
    O(segments) for one progression, one NumPy expansion otherwise."""
    if not segments:
        return prog(0, 1, 0)
    if len(segments) == 1:
        s = segments[0]
        return prog(s.lo, s.step, s.count())
    lo, hi, step = (np.array(a, dtype=np.int64) for a in zip(
        *((s.lo, s.hi, s.step) for s in segments)))
    cnt = np.maximum((hi - lo) // step + 1, 0)
    within = np.arange(int(cnt.sum()), dtype=np.int64) \
        - np.repeat(np.cumsum(cnt) - cnt, cnt)
    return compress(np.unique(np.repeat(lo, cnt) + np.repeat(step, cnt) * within))


def compose(base: Key, pos: Key) -> Key:
    """``base[pos]`` as a key."""
    if not isinstance(base, slice):
        return compress(base[pos])
    b0, bs, _ = _ssc(base)
    if isinstance(pos, slice):
        p0, ps, pn = _ssc(pos)
        return prog(b0 + bs * p0, bs * ps, pn)
    return compress(b0 + bs * pos)


def meet(a: Key, b: Key) -> Key:
    """The members two ascending (sorted, distinct) keys share: two
    progressions meet in a progression (one congruence, O(1)); a vector
    is filtered."""
    if isinstance(a, slice) and isinstance(b, slice):
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
    if isinstance(a, slice):
        a, b = b, a
    if isinstance(b, slice):
        b0, t, bn = _ssc(b)
        return compress(
            a[(a >= b0) & (a <= b0 + t * (bn - 1)) & ((a - b0) % t == 0)])
    return compress(np.intersect1d(a, b, assume_unique=True))


def minus(a: Key, b: Key) -> Key:
    """The members of ascending key *a* that ascending key *b* lacks: a
    progression losing a run of its terms at one end stays a
    progression (O(1)); anything else is one ``setdiff1d``."""
    both = meet(a, b)
    lost, left = klen(both), klen(a) - klen(both)
    if not left:
        return prog(0, 1, 0)
    if not lost:
        return a if isinstance(a, slice) else compress(a)
    if isinstance(a, slice) and isinstance(both, slice):
        (a0, s, an), (b0, t, _) = _ssc(a), _ssc(both)
        if t == s or lost == 1:  # consecutive terms of a
            if b0 == a0:
                return prog(a0 + s * lost, s, left)
            if b0 + s * (lost - 1) == a0 + s * (an - 1):
                return prog(a0, s, left)
    return compress(np.setdiff1d(vec(a), vec(both), assume_unique=True))


def _ascending(key: Key) -> Key:
    """The key's distinct elements in ascending order (what
    :func:`meet` takes)."""
    if not isinstance(key, slice):  # most vector keys are built sorted
        return key if (np.diff(key) > 0).all() else np.unique(key)
    start, step, count = _ssc(key)
    return key if step > 0 else prog(start + step * (count - 1), -step, count)


def locate(sub: Key, base: Key) -> Key:
    """Positions of *sub*'s elements within the ascending key *base*
    (``sub ⊆ base``) — the inverse of :func:`compose`."""
    if not isinstance(base, slice):
        return compress(np.searchsorted(base, vec(sub)))
    b0, bs, _ = _ssc(base)
    if isinstance(sub, slice):
        s0, ss, sn = _ssc(sub)
        return prog((s0 - b0) // bs, ss // bs, sn)
    return compress((sub - b0) // bs)


def image(f, key: Key) -> Key:
    """``f`` over a key of loop indices: affine functions map a
    progression to a progression in O(1); anything else is evaluated
    element-wise and re-compressed."""
    if isinstance(key, slice) and isinstance(f, (AffineF, ConstantF)):
        i0, st, n = _ssc(key)
        a = getattr(f, "a", 0)
        return prog(a * i0 + f.c, a * st, n)
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
                 "_kshape", "_perm", "_expand", "_vecs")

    def __init__(self, keys: Sequence[Key], dims: Sequence[int],
                 shape: Sequence[int]):
        self.keys, self.dims = tuple(keys), tuple(dims)
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

    def __reduce__(self):
        # an install payload carries the keys, never the derived vectors
        return Region, (self.keys, self.dims, self.shape)

    @property
    def nbytes(self) -> int:
        """Resident bytes of the vector keys (slices cost nothing)."""
        held = () if self.sliced else self._index
        return sum(int(a.nbytes) for a in held + (self._vecs or ()))

    def extent(self) -> Tuple[Optional[Tuple[int, int]], ...]:
        """Per array axis the ``(min, max)`` index addressed (``None``
        for an empty key) — exact from a slice's first and last element,
        from min/max of a vector."""
        out = []
        for k, n in zip(self.keys, self._kshape):
            if isinstance(k, slice):
                start, step, _ = _ssc(k)
                k = np.array([start, start + step * (n - 1)])
            out.append((int(k.min()), int(k.max())) if n else None)
        return tuple(out)

    def overlap(self, other: "Region") -> Optional[Tuple[int, ...]]:
        """The smallest element both regions address (``None``:
        disjoint) — two products intersect iff their keys meet on every
        axis, so this is O(1) per slice-keyed axis."""
        first = []
        for a, b in zip(self.keys, other.keys):
            both = meet(_ascending(a), _ascending(b))
            if not klen(both):
                return None
            first.append(_ssc(both)[0] if isinstance(both, slice)
                         else int(both[0]))
        return tuple(first)

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

    def grids(self) -> Tuple[np.ndarray, ...]:
        """Open-grid index vectors, one per key along its lane axis."""
        n = len(self.shape)
        return tuple(vec(k).reshape([-1 if e == d else 1 for e in range(n)])
                     for k, d in zip(self.keys, self.dims))

    def index_vectors(self) -> Tuple[np.ndarray, ...]:
        """Per array axis the int64 index of every lane, row-major over
        ``shape`` — built on first use, then kept."""
        if self._vecs is None:
            self._vecs = tuple(  # owned, contiguous: the njit signature
                np.array(np.broadcast_to(g, self.shape)).ravel()
                for g in self.grids())
        return self._vecs

    def flat(self, shape: Sequence[int]) -> np.ndarray:
        """Row-major offset of every lane into an array of *shape*."""
        v = self.index_vectors()
        return v[0] if len(v) == 1 else np.ravel_multi_index(v, tuple(shape))
