"""Dynamic decompositions: automatically generated redistribution plans.

The paper's introduction criticizes systems where "redistribution
statements are not generated automatically and are intermingled with the
program code" and lists dynamic decompositions as the target of further
research (Section 5).  We implement the natural V-cal answer: given a
source decomposition ``D1`` and target ``D2`` of the same structure, the
communication set is derived purely from the two views, by the rule of
every exchange in the compiler (:func:`repro.pipeline.region.exchange`):
what processor ``q`` receives from ``p`` is what ``q`` owns under ``D2``
(what it needs) met with what ``p`` owns under ``D1``, on their
``owned_indices`` keys — O(P²) key operations, not O(n).  A
:class:`Replicated` source feeding a partitioned destination is its
canonical copy on processor 0 (as its ``proc``/``local`` report); a
replicated destination needs the whole array everywhere, which a
replicated source already holds: every copy stays.
:mod:`repro.codegen.redistribute` turns the plan into node programs for
the simulated machines.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Tuple

from ..pipeline.region import Key, compose, exchange, klen, locate
from .base import Decomposition

__all__ = ["RedistributionPlan", "plan_redistribution"]


@dataclass
class RedistributionPlan:
    """The keys that change a structure from ``src`` to ``dst``.

    ``moves[(p, q)]`` is ``(global, src_slots, dst_slots)``: the global
    indices processor ``p`` hands to ``q`` in ascending order (the
    payload order), their slots in ``p``'s old buffer and in ``q``'s new
    one.  ``p == q`` is a stay: a move within one memory.
    """

    src: Decomposition
    dst: Decomposition
    moves: Dict[Tuple[int, int], Tuple[Key, Key, Key]]

    # -- statistics the benchmarks report: counts over the keys -------------

    def volume_by_pair(self) -> Dict[Tuple[int, int], int]:
        return {(p, q): klen(m[0]) for (p, q), m in self.moves.items()
                if p != q}

    def moved_elements(self) -> int:
        return sum(self.volume_by_pair().values())

    def message_count(self) -> int:
        return len(self.volume_by_pair())

    def stay_elements(self) -> int:
        return sum(klen(m[0]) for (p, q), m in self.moves.items() if p == q)

    def max_fan_out(self) -> int:
        """Largest number of distinct destinations any processor sends to."""
        return max(Counter(p for p, _q in self.volume_by_pair()).values(),
                   default=0)


def plan_redistribution(src: Decomposition, dst: Decomposition) -> RedistributionPlan:
    """Derive the full redistribution plan ``src -> dst``: both 1-D,
    over the same global range.  O(P²) key operations."""
    for d in (src, dst):
        if not isinstance(d, Decomposition):
            raise ValueError(
                f"redistribution runs between 1-D decompositions, not {d!r}")
    if src.n != dst.n:
        raise ValueError(f"size mismatch: src n={src.n}, dst n={dst.n}")
    if src.pmax != dst.pmax:
        raise ValueError(f"processor count mismatch: src pmax={src.pmax}, "
                         f"dst pmax={dst.pmax}")
    own, need = src.placement_keys(), dst.placement_keys()
    both = src.is_replicated and dst.is_replicated  # every copy stays
    if src.is_replicated and not both:  # its canonical copy, on processor 0
        own[1:] = [(slice(0, 0), slice(0, 0))] * (src.pmax - 1)
    met = exchange([[k] for k, _ in need], [[k] for k, _ in own])
    return RedistributionPlan(src, dst, {
        (p, q): (g, compose(own[p][1], locate(g, own[p][0])),
                 compose(need[q][1], locate(g, need[q][0])))
        for (q, p), (g,) in met.items() if p == q or not both})
