"""Token definitions for the Fig. 1 imperative mini-language."""

from __future__ import annotations

from typing import Hashable, NamedTuple

__all__ = ["Token", "KEYWORDS", "SYMBOLS"]

KEYWORDS = {
    "for", "to", "do", "od", "if", "then", "else", "fi",
    "par", "seq", "div", "mod", "and", "or", "not", "view",
}

# longest-match first
SYMBOLS = [
    ":=", "<=", ">=", "!=", "<", ">", "=",
    "+", "-", "*", "/", "(", ")", "[", "]", ";", ",",
]


class Token(NamedTuple):
    kind: str  # 'num' | 'ident' | 'kw' | 'sym' | 'eof'
    value: Hashable
    line: int
    col: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Token({self.kind}:{self.value!r}@{self.line}:{self.col})"
