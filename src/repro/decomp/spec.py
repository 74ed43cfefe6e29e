"""A textual decomposition-specification language.

The paper's central premise is that decompositions are specified
*separately* from the program ("a separately specified decomposition of
the data").  This module gives that specification a concrete, versionable
syntax::

    # one statement per array; '#' comments
    distribute A[24](block) on 4;
    distribute B[48](scatter) on 4;
    distribute C[24](blockscatter(2)) on 4;
    distribute D[24](replicated) on 4;
    distribute E[24](single(1)) on 4;
    distribute M[8, 6](block, scatter) on 2 x 3;   # processor grid
    distribute N[8, 6](block, collapsed) on 2;     # undistributed axis

Kinds: ``block[(b)]``, ``scatter``, ``blockscatter(b)``, ``single(owner)``,
``replicated``, ``collapsed`` (grid axes only).  There is no halo kind:
the ghost margin of a shifted read is derived per clause from ownership.
Changing the parallelization of a program is editing this file — never
the program text.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple, Union

from .base import Decomposition
from .block import Block
from .blockscatter import BlockScatter
from .multidim import Collapsed, GridDecomposition
from .replicated import Replicated, SingleOwner
from .scatter import Scatter

__all__ = ["SpecError", "parse_spec", "parse_distribution"]

AnyDec = Union[Decomposition, GridDecomposition]


class SpecError(ValueError):
    """Malformed decomposition specification."""


_STMT = re.compile(
    r"""^distribute\s+
        (?P<name>[A-Za-z_]\w*)\s*
        \[(?P<shape>[^\]]+)\]\s*
        \((?P<kinds>(?:[^()]|\([^()]*\))*)\)\s*
        on\s+(?P<grid>[0-9]+(?:\s*x\s*[0-9]+)*)\s*$""",
    re.VERBOSE,
)

_KIND = re.compile(r"^(?P<kind>[a-z]+)(?:\((?P<args>[^)]*)\))?$")


def _split_kinds(text: str) -> List[str]:
    """Split 'block, blockscatter(2)' respecting parentheses."""
    out, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur).strip())
    return [k for k in out if k]


def _axis(kind_text: str, n: int, pmax: int) -> Decomposition:
    m = _KIND.match(kind_text.strip())
    if not m:
        raise SpecError(f"bad distribution kind {kind_text!r}")
    kind = m.group("kind")
    args = [int(a) for a in m.group("args").split(",")] if m.group("args") \
        else []
    if kind == "block":
        return Block(n, pmax, b=args[0] if args else None)
    if kind == "scatter":
        return Scatter(n, pmax)
    if kind == "blockscatter":
        if not args:
            raise SpecError("blockscatter needs a block size")
        return BlockScatter(n, pmax, args[0])
    if kind == "single":
        return SingleOwner(n, pmax, args[0] if args else 0)
    if kind == "replicated":
        return Replicated(n, pmax)
    if kind == "collapsed":
        if pmax != 1:
            raise SpecError("a collapsed axis takes one grid point")
        return Collapsed(n)
    raise SpecError(
        f"unknown distribution kind {kind!r}; valid kinds: block[(b)], "
        "scatter, blockscatter(b), single(owner), replicated, collapsed")


def parse_distribution(line: str) -> Tuple[str, AnyDec]:
    """Parse one ``distribute`` statement (without trailing ';')."""
    m = _STMT.match(line.strip())
    if not m:
        raise SpecError(f"cannot parse distribution statement: {line!r}")
    name = m.group("name")
    shape = [int(s) for s in m.group("shape").split(",")]
    kinds = _split_kinds(m.group("kinds"))
    grid = [int(g) for g in re.split(r"\s*x\s*", m.group("grid"))]

    if len(kinds) != len(shape):
        raise SpecError(
            f"{name}: {len(shape)} dimensions but {len(kinds)} kinds"
        )
    # collapsed axes consume no grid factor
    per_axis_p: List[int] = []
    gi = 0
    for k in kinds:
        if k.startswith("collapsed"):
            per_axis_p.append(1)
        else:
            if gi >= len(grid):
                raise SpecError(
                    f"{name}: not enough grid factors for the distributed "
                    f"axes"
                )
            per_axis_p.append(grid[gi])
            gi += 1
    if gi != len(grid):
        raise SpecError(f"{name}: {len(grid) - gi} unused grid factor(s)")

    if len(shape) == 1:
        return name, _axis(kinds[0], shape[0], per_axis_p[0])
    axes = [_axis(k, n, p) for k, n, p in zip(kinds, shape, per_axis_p)]
    return name, GridDecomposition(axes)


def parse_spec(text: str) -> Dict[str, AnyDec]:
    """Parse a whole specification file into ``{array: decomposition}``."""
    out: Dict[str, AnyDec] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for stmt in line.split(";"):
            stmt = stmt.strip()
            if not stmt:
                continue
            name, dec = parse_distribution(stmt)
            if name in out:
                raise SpecError(f"array {name!r} distributed twice")
            out[name] = dec
    return out
