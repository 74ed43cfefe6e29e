"""Lexer for the Fig. 1 imperative mini-language.

Comments run from ``**`` to end of line (the paper's pseudo-code comment
style) or from ``#``.  Outside comments the language is ASCII: numbers
are ASCII digit runs, identifiers ASCII letters, digits and ``_``, and
any other character — a superscript ``²``, a non-breaking space — is a
:class:`LexError` naming its line and column.
"""

from __future__ import annotations

import re
from typing import List

from .tokens import KEYWORDS, SYMBOLS, Token

__all__ = ["LexError", "tokenize"]


class LexError(SyntaxError):
    """Unrecognized input character."""


#: one alternation, tried left to right at every position; ``bad``
#: takes the one character nothing else does
_TOKEN = re.compile(
    r"(?P<ws>[ \t\n\r\x0b\x0c\x1c-\x1f]+)"
    r"|(?P<comment>(?:#|\*\*)[^\n]*)"
    r"|(?P<num>[0-9]+)"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<sym>" + "|".join(map(re.escape, SYMBOLS)) + ")"
    r"|(?P<bad>.)",
    re.DOTALL,
)


def tokenize(source: str) -> List[Token]:
    """Tokenize *source*; the final token is always ``eof``."""
    out: List[Token] = []
    line, line_start = 1, 0
    m = None
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        if kind == "ws":
            text = m.group()
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = m.start() + text.rindex("\n") + 1
            continue
        if kind == "comment":
            continue
        col = m.start() - line_start + 1
        if kind == "word":
            word = m.group()
            out.append(Token("kw" if word in KEYWORDS else "ident", word,
                             line, col))
        elif kind == "num":
            out.append(Token("num", int(m.group()), line, col))
        elif kind == "sym":
            out.append(Token("sym", m.group(), line, col))
        else:
            raise LexError(f"unexpected character {m.group()!r} at line "
                           f"{line}, column {col}")
    # a trailing comment does not advance the column of ``eof``
    end = m.start() if m is not None and m.lastgroup == "comment" \
        else len(source)
    out.append(Token("eof", None, line, end - line_start + 1))
    return out
