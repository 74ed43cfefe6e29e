"""Inline source forms of the Table I generation functions.

For the closed-form rules, the generated node program should contain the
*formulas* of Table I — loop bounds as arithmetic in ``p`` — rather than
a call back into the compiler.  This module renders them:

* Theorem 1 (constant ``c``): ``t_min = imin`` for ``p = proc(c)``,
  empty otherwise, folded to an ``if p == ...`` at generation time
  (``proc(c)`` is compile-time known);
* block + affine: ``j in [max(imin, ceil((b.p - c)/a)),
  min(imax, floor((b.p + b - 1 - c)/a))]`` (with exact integer ceil/floor
  and slope-sign handling);
* scatter + affine (Theorem 3): ``x_p`` and the stride are computed *at
  node start-up* by extended Euclid — the paper's §4 recommendation that
  each processor compute its own constants — then the loop is a pure
  arithmetic progression;
* single-owner / replicated degenerate forms;
* everything else falls back to the runtime enumerator table
  (``RT.segments``), preserving correctness for monotone/piecewise
  accesses whose inverse has no closed source form.

The emitted fragments assign a list of ``(lo, hi, step)`` triples to a
variable, so the surrounding template is identical either way.
"""

from __future__ import annotations

from typing import List

from ..core.ifunc import AffineF, ConstantF
from ..decomp.block import Block
from ..decomp.replicated import Replicated, SingleOwner
from ..decomp.scatter import Scatter
from ..sets.table1 import OptimizedAccess

__all__ = ["segments_source", "SUPPORT_HELPERS"]

#: helper functions injected into the generated module's namespace
SUPPORT_HELPERS = '''\
def _ceil_div(a, b):
    q, r = divmod(a, b)
    return q + (1 if r else 0)


def _floor_div(a, b):
    return a // b


def _solve_congruence(a, c, pmax, p):
    """Theorem 3 start-up: particular solution and stride of
    a.i + c ≡ p (mod pmax); None when this processor is inactive."""
    old_r, r = abs(a), pmax
    old_x, x = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
    g = old_r
    rhs = p - c
    if rhs % g:
        return None
    stride = pmax // g
    bez = old_x if a > 0 else -old_x
    x0 = (bez * (rhs // g)) % stride
    return x0, stride
'''

def _affine_block_bounds(d: Block, f: AffineF, imin: int, imax: int,
                         var: str) -> List[str]:
    """Inline Table I block-row bounds for ``f(i) = a.i + c``."""
    a, c, b = f.a, f.c, d.b
    hi_data = f"min({b} * p + {b} - 1, {d.n - 1})"
    lo_data = f"{b} * p"
    if a > 0:
        jmin = f"max({imin}, _ceil_div({lo_data} - {c}, {a}))"
        jmax = f"min({imax}, _floor_div({hi_data} - {c}, {a}))"
    else:
        jmin = f"max({imin}, _ceil_div({hi_data} - {c}, {a}))"
        jmax = f"min({imax}, _floor_div({lo_data} - {c}, {a}))"
    return [
        f"{var}_lo = {jmin}",
        f"{var}_hi = {jmax}",
        f"{var} = [({var}_lo, {var}_hi, 1)] if {var}_lo <= {var}_hi else []",
    ]


def segments_source(acc: OptimizedAccess, var: str, rt_key: str) -> List[str]:
    """Source lines assigning the segment list for this access to *var*.

    Falls back to ``{var} = RT.segments({rt_key!r}, p)`` when no inline
    closed form exists for the (rule, types) combination.
    """
    d, f = acc.d, acc.f
    imin, imax = acc.imin, acc.imax

    # Theorem 1: proc(c) folds at generation time.
    if isinstance(f, ConstantF) and not isinstance(d, Replicated):
        owner = d.proc(f.c)
        return [
            f"# Thm 1: constant access, owner proc({f.c}) = {owner}",
            f"{var} = [({imin}, {imax}, 1)] if p == {owner} else []",
        ]

    if isinstance(d, SingleOwner):
        return [
            f"# single owner {d.owner}",
            f"{var} = [({imin}, {imax}, 1)] if p == {d.owner} else []",
        ]

    if isinstance(d, Replicated):
        return [f"{var} = [({imin}, {imax}, 1)]  # replicated: all nodes"]

    # Block + affine: pure arithmetic bounds (Table I rows 2/4 col 1).
    if isinstance(d, Block) and isinstance(f, AffineF):
        return [f"# block bounds, f(i) = {f.name}, b = {d.b}"] + \
            _affine_block_bounds(d, f, imin, imax, var)

    # Scatter + affine: Theorem 3 with node-local Euclid (§4).
    if isinstance(d, Scatter) and isinstance(f, AffineF):
        a, c = f.a, f.c
        # clip to indices whose data stays in [0, n)
        if a > 0:
            dlo = f"max({imin}, _ceil_div(0 - {c}, {a}))"
            dhi = f"min({imax}, _floor_div({d.n - 1} - {c}, {a}))"
        else:
            dlo = f"max({imin}, _ceil_div({d.n - 1} - {c}, {a}))"
            dhi = f"min({imax}, _floor_div(0 - {c}, {a}))"
        return [
            f"# Thm 3: scatter, f(i) = {f.name}; x_p via node-local Euclid",
            f"{var}_sol = _solve_congruence({a}, {c}, {d.pmax}, p)",
            f"if {var}_sol is None:",
            f"    {var} = []",
            f"else:",
            f"    {var}_x0, {var}_st = {var}_sol",
            f"    {var}_lo = {dlo}",
            f"    {var}_hi = {dhi}",
            f"    {var}_first = {var}_x0 + _ceil_div({var}_lo - {var}_x0, "
            f"{var}_st) * {var}_st",
            f"    {var}_last = {var}_x0 + _floor_div({var}_hi - {var}_x0, "
            f"{var}_st) * {var}_st",
            f"    {var} = ([({var}_first, {var}_last, {var}_st)]",
            f"        if {var}_first <= {var}_last else [])",
        ]

    # Fallback: runtime enumerator table (monotone, modular, BS courses).
    return [
        f"# rule {acc.rule}: no inline closed source form, runtime table",
        f"{var} = RT.segments({rt_key!r}, p)",
    ]
