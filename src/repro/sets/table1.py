"""The Table I dispatch: pick the strongest optimization for an access.

Given a decomposition and a classified access function, return an
:class:`OptimizedAccess` that enumerates ``{ i | proc(f(i)) = p }`` with
the best rule the paper derives:

====================  =============  ==========================  ==================
access function       Block          Scatter                     Block/Scatter BS(b)
====================  =============  ==========================  ==================
``c``                 Thm 1          Thm 1                       Thm 1
``i + c``             block range    Thm 3 (stride pmax)         RB / RS
``a.i + c``           block range    Thm 3 (+Cor 1 / Cor 2)      RB / RS
monotone (non-lin)    block range    enum-on-k if df/di < pmax,  RB / RS
                                     else naive
``g(i) mod z + d``    piecewise of   piecewise of the above      piecewise RB / RS
                      the above
====================  =============  ==========================  ==================

RB = Repeated Block (Theorem 2), RS = Repeated Scatter (§3.2.i); RS is
selected when ``b <= f(imax)/(2.pmax)``, the paper's favourability
condition.  SingleOwner/Replicated degenerate decompositions get their
trivial closed forms.  Anything else falls back to the naive scan — the
dispatch never *fails*, it only degrades, mirroring "preferably all index
sets are completely reduced at compile time" (§3).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..core.ifunc import AffineF, ConstantF, IFunc, ModularF
from ..decomp.base import Decomposition
from ..decomp.block import Block
from ..decomp.blockscatter import BlockScatter
from ..decomp.replicated import Replicated, SingleOwner
from ..decomp.scatter import Scatter
from .enumerators import (
    Enumeration,
    enum_block,
    enum_constant,
    enum_naive,
    enum_piecewise,
    enum_repeated_block,
    enum_repeated_scatter,
    enum_scatter_linear,
    enum_scatter_on_k,
    enum_trivial,
    _whole,
)
from .membership import Work

__all__ = ["OptimizedAccess", "optimize_access", "choose_rule",
           "table1_cache_info", "clear_table1_cache"]

EnumFn = Callable[[Decomposition, IFunc, int, int, int, Work], Enumeration]


@dataclass
class OptimizedAccess:
    """A compiled (decomposition, access, range) triple.

    ``rule`` names the Table I entry that will fire; ``enumerate(p)``
    produces the membership set for processor *p*.
    """

    d: Decomposition
    f: IFunc
    imin: int
    imax: int
    rule: str
    _fn: EnumFn
    #: per processor ``(Enumeration, Work delta)`` — kept only on
    #: accesses the Table I memo holds: their decomposition has a
    #: structural ``cache_key``, so membership cannot change under them
    _memo: Optional[Dict[int, tuple]] = None

    def enumerate(self, p: int, work: Optional[Work] = None) -> Enumeration:
        """``{ i | proc(f(i)) = p }``.  Each ``(access, p)`` is
        enumerated once per compile: the enumeration is memoized with the
        :class:`Work` it cost, and every call replays that cost into
        *work* and returns the same read-only :class:`Enumeration`."""
        hit = self._memo.get(p) if self._memo is not None else None
        if hit is None:
            delta = Work()
            hit = (self._fn(self.d, self.f, self.imin, self.imax, p, delta),
                   delta)
            if self._memo is not None:
                self._memo[p] = hit
        if work is not None:
            for name, spent in vars(hit[1]).items():
                setattr(work, name, getattr(work, name) + spent)
        return hit[0]

    def indices(self, p: int, work: Optional[Work] = None) -> list[int]:
        return self.enumerate(p, work).indices()


def _wants_repeated_scatter(d: BlockScatter, f: IFunc, imin: int, imax: int) -> bool:
    """§3.2.i condition: RS beats RB when ``b <= f(imax)/(2.pmax)``."""
    _flo, fhi = f.image_bounds(imin, imax)
    return d.b * 2 * d.pmax <= max(fhi, 0)


def _monotone_ok(f: IFunc, imin: int, imax: int) -> bool:
    try:
        return f.monotone_direction(imin, imax) != 0
    except NotImplementedError:
        return False


def choose_rule(
    d: Decomposition, f: IFunc, imin: int, imax: int
) -> tuple[str, EnumFn]:
    """Select the Table I rule name and enumerator for this access."""
    # Degenerate decompositions first: membership independent of f.
    if isinstance(d, (SingleOwner, Replicated)):
        return ("singleowner" if isinstance(d, SingleOwner) else "replicated-all",
                enum_trivial)
    from ..decomp.multidim import Collapsed

    if isinstance(d, Collapsed):
        # an undistributed grid axis: its single processor owns everything
        def collapsed(d_, f_, lo, hi, p, work):
            return _whole("collapsed", p == 0, lo, hi, work)

        return "collapsed", collapsed

    if isinstance(f, ConstantF):
        return "thm1-constant", enum_constant

    # Piece-wise monotonic: split and recurse on the monotone pieces (§3.3).
    if isinstance(f, ModularF):
        def piecewise(d_, f_, lo, hi, p, work, _outer=(d, imin, imax)):
            def inner(dd, ff, l, h, pp, w):
                _rule, fn = choose_rule(dd, ff, l, h)
                return fn(dd, ff, l, h, pp, w)
            return enum_piecewise(d_, f_, lo, hi, p, work, inner)

        inner_rule, _ = choose_rule(d, _sample_piece(f, imin, imax), imin, imax)
        return f"piecewise({inner_rule})", piecewise

    if isinstance(d, Block):
        if isinstance(f, AffineF) or _monotone_ok(f, imin, imax):
            return "block", enum_block
        return "naive", enum_naive

    if isinstance(d, Scatter):
        if isinstance(f, AffineF):
            if d.pmax % abs(f.a) == 0:
                return "thm3-cor1", enum_scatter_linear
            if abs(f.a) % d.pmax == 0:
                return "thm3-cor2", enum_scatter_linear
            return "thm3-linear", enum_scatter_linear
        if _monotone_ok(f, imin, imax):
            if f.derivative_bound(imin, imax) < d.pmax:
                return "enum-on-k", enum_scatter_on_k
            # Scatter is BS(1): Theorem 2 still enumerates correctly, and
            # with df/di >= pmax it is the better of the bad options.
            return "thm2-repeated-block", enum_repeated_block
        return "naive", enum_naive

    if isinstance(d, BlockScatter):
        if isinstance(f, AffineF) or _monotone_ok(f, imin, imax):
            if _wants_repeated_scatter(d, f, imin, imax):
                return "repeated-scatter", enum_repeated_scatter
            return "thm2-repeated-block", enum_repeated_block
        return "naive", enum_naive

    return "naive", enum_naive


def _sample_piece(f: ModularF, imin: int, imax: int) -> IFunc:
    """Representative monotone piece of a modular access, used only to name
    the inner rule in diagnostics."""
    pieces = f.pieces(imin, imax)
    return pieces[0][2] if pieces else f.g


# -- memoization --------------------------------------------------------------
#
# Access compilation is pure in (decomposition structure, f, imin, imax) but
# decompositions are identity-hashed, so a plain ``functools.lru_cache`` would
# never hit across reconstructed objects.  We key on ``d.cache_key()`` (the
# structural identity; see :meth:`Decomposition.cache_key`) instead, with the
# function object itself as the second component — ``ConstantF``/``AffineF``
# hash structurally, opaque callables degrade to identity (misses, never
# false hits).  A ``None`` cache key opts the decomposition out entirely.

_DEFAULT_CACHE_MAXSIZE = 1024


def _cache_maxsize() -> int:
    """LRU capacity, overridable with ``REPRO_CACHE_SIZE``: read once,
    on first use — ``pipeline`` imports ``sets``, so its env reader is
    imported here and not at module level."""
    global _CACHE_MAXSIZE
    if _CACHE_MAXSIZE is None:
        from ..pipeline.cache import _env_number

        _CACHE_MAXSIZE = _env_number("REPRO_CACHE_SIZE",
                                     _DEFAULT_CACHE_MAXSIZE)
    return _CACHE_MAXSIZE


_CACHE_MAXSIZE: Optional[int] = None
_cache: "OrderedDict[Tuple, OptimizedAccess]" = OrderedDict()
_cache_lock = threading.Lock()
_cache_hits = 0
_cache_misses = 0
_cache_evictions = 0


def table1_cache_info() -> Dict[str, int]:
    """Hit/miss/size counters for the Table I memo (monitoring/tests)."""
    with _cache_lock:
        return {"hits": _cache_hits, "misses": _cache_misses,
                "evictions": _cache_evictions,
                "size": len(_cache), "maxsize": _cache_maxsize()}


def clear_table1_cache() -> None:
    """Drop every memoized access (and every enumeration memoized on
    one) and reset the counters."""
    global _cache_hits, _cache_misses, _cache_evictions
    with _cache_lock:
        for acc in _cache.values():
            acc._memo.clear()
        _cache.clear()
        _cache_hits = 0
        _cache_misses = 0
        _cache_evictions = 0


def _build_access(d: Decomposition, f: IFunc, imin: int, imax: int) -> OptimizedAccess:
    if imin > imax:
        rule, fn = "empty", lambda d_, f_, lo, hi, p, w: Enumeration.table("empty")
        return OptimizedAccess(d, f, imin, imax, rule, fn)
    rule, fn = choose_rule(d, f, imin, imax)
    return OptimizedAccess(d, f, imin, imax, rule, fn)


def optimize_access(
    d: Decomposition, f: IFunc, imin: int, imax: int
) -> OptimizedAccess:
    """Compile one access: returns the optimized membership enumerator.

    Results are memoized on ``(d.cache_key(), f, imin, imax)`` — repeated
    queries for structurally identical (decomposition, access, range)
    triples are O(1) dict hits.
    """
    global _cache_hits, _cache_misses
    dkey = d.cache_key() if hasattr(d, "cache_key") else None
    if dkey is None:
        return _build_access(d, f, imin, imax)
    try:
        key = (dkey, f, imin, imax)
        hash(key)
    except TypeError:  # unhashable access function: build uncached
        return _build_access(d, f, imin, imax)
    with _cache_lock:
        hit = _cache.get(key)
        if hit is not None:
            _cache.move_to_end(key)
            _cache_hits += 1
            return hit
    acc = _build_access(d, f, imin, imax)
    acc._memo = {}
    with _cache_lock:
        global _cache_evictions
        _cache_misses += 1
        _cache[key] = acc
        while len(_cache) > _cache_maxsize():
            _cache.popitem(last=False)
            _cache_evictions += 1
    return acc
