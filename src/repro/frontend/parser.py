"""Recursive-descent parser for the Fig. 1 mini-language.

Grammar (statements end in ``;``, loop order defaults to ``seq`` like the
paper's ``for`` — annotate ``par`` to assert independence)::

    program := stmt*
    stmt    := for | if | assign
    for     := 'for' IDENT ':=' expr 'to' expr ('par'|'seq')? 'do' stmt* 'od' ';'?
    if      := 'if' expr 'then' stmt* ('else' stmt*)? 'fi' ';'?
    assign  := IDENT '[' expr (',' expr)* ']' ':=' expr ';'

    expr    := orterm ('or' orterm)*
    orterm  := andterm ('and' andterm)*
    andterm := ('not' andterm) | cmp
    cmp     := sum (('<'|'<='|'>'|'>='|'='|'!=') sum)?
    sum     := prod (('+'|'-') prod)*
    prod    := unary (('*'|'/'|'div'|'mod') unary)*
    unary   := '-' unary | atom
    atom    := NUM | IDENT ('[' expr (',' expr)* ']')? | '(' expr ')'

:func:`parse` is a pure function of the text (parameters only enter in
``translate``), so its immutable AST is memoized on the text in a
bounded LRU: a daemon that sees one program a thousand times lexes and
parses it once.  The same entry keeps the text's translations, keyed by
their parameters (see :func:`repro.frontend.translate_source`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional

from .ast import (
    Assign,
    Bin,
    Block,
    For,
    If,
    Node,
    Num,
    Subscript,
    Un,
    Var,
    ViewDecl,
)
from .lexer import tokenize
from .tokens import Token

__all__ = ["ParseError", "Parser", "parse", "parse_cache_info",
           "clear_parse_cache", "count_parse_hit"]


class ParseError(SyntaxError):
    """Input does not conform to the grammar."""


class Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token helpers -------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, value=None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (value is None or tok.value == value)

    def expect(self, kind: str, value=None) -> Token:
        tok = self.peek()
        if not self.at(kind, value):
            want = value if value is not None else kind
            raise ParseError(
                f"expected {want!r}, got {tok.value!r} at line {tok.line}"
            )
        return self.next()

    def accept(self, kind: str, value=None) -> bool:
        if self.at(kind, value):
            self.next()
            return True
        return False

    # -- statements --------------------------------------------------------------

    def parse_program(self) -> Block:
        body: List[Node] = []
        while not self.at("eof"):
            body.append(self.parse_stmt())
        return Block(body)

    def parse_stmt(self) -> Node:
        if self.at("kw", "for"):
            return self.parse_for()
        if self.at("kw", "if"):
            return self.parse_if()
        if self.at("kw", "view"):
            return self.parse_view()
        return self.parse_assign()

    def parse_view(self) -> ViewDecl:
        """``view V[i, j] := A[e1, e2];``"""
        self.expect("kw", "view")
        name = self.expect("ident").value
        self.expect("sym", "[")
        formals = [self.expect("ident").value]
        while self.accept("sym", ","):
            formals.append(self.expect("ident").value)
        self.expect("sym", "]")
        self.expect("sym", ":=")
        target_name = self.expect("ident").value
        self.expect("sym", "[")
        indices = [self.parse_expr()]
        while self.accept("sym", ","):
            indices.append(self.parse_expr())
        self.expect("sym", "]")
        self.expect("sym", ";")
        return ViewDecl(name, tuple(formals), Subscript(target_name,
                                                        tuple(indices)))

    def parse_for(self) -> For:
        self.expect("kw", "for")
        var = self.expect("ident").value
        self.expect("sym", ":=")
        lo = self.parse_expr()
        self.expect("kw", "to")
        hi = self.parse_expr()
        order = "seq"
        if self.accept("kw", "par"):
            order = "par"
        elif self.accept("kw", "seq"):
            order = "seq"
        self.expect("kw", "do")
        body: List[Node] = []
        while not self.at("kw", "od"):
            body.append(self.parse_stmt())
        self.expect("kw", "od")
        self.accept("sym", ";")
        return For(var, lo, hi, order, body)

    def parse_if(self) -> If:
        self.expect("kw", "if")
        cond = self.parse_expr()
        self.expect("kw", "then")
        body: List[Node] = []
        while not (self.at("kw", "fi") or self.at("kw", "else")):
            body.append(self.parse_stmt())
        orelse: List[Node] = []
        if self.accept("kw", "else"):
            while not self.at("kw", "fi"):
                orelse.append(self.parse_stmt())
        self.expect("kw", "fi")
        self.accept("sym", ";")
        return If(cond, body, orelse)

    def parse_assign(self) -> Assign:
        name = self.expect("ident").value
        self.expect("sym", "[")
        indices = [self.parse_expr()]
        while self.accept("sym", ","):
            indices.append(self.parse_expr())
        self.expect("sym", "]")
        target = Subscript(name, tuple(indices))
        self.expect("sym", ":=")
        value = self.parse_expr()
        self.expect("sym", ";")
        return Assign(target, value)

    # -- expressions -----------------------------------------------------------

    def parse_expr(self) -> Node:
        node = self.parse_andterm()
        while self.at("kw", "or"):
            self.next()
            node = Bin("or", node, self.parse_andterm())
        return node

    def parse_andterm(self) -> Node:
        node = self.parse_notterm()
        while self.at("kw", "and"):
            self.next()
            node = Bin("and", node, self.parse_notterm())
        return node

    def parse_notterm(self) -> Node:
        if self.accept("kw", "not"):
            return Un("not", self.parse_notterm())
        return self.parse_cmp()

    def parse_cmp(self) -> Node:
        node = self.parse_sum()
        for op in ("<=", ">=", "!=", "<", ">", "="):
            if self.at("sym", op):
                self.next()
                return Bin(op, node, self.parse_sum())
        return node

    def parse_sum(self) -> Node:
        node = self.parse_prod()
        while self.at("sym", "+") or self.at("sym", "-"):
            op = self.next().value
            node = Bin(op, node, self.parse_prod())
        return node

    def parse_prod(self) -> Node:
        node = self.parse_unary()
        while (
            self.at("sym", "*")
            or self.at("sym", "/")
            or self.at("kw", "div")
            or self.at("kw", "mod")
        ):
            op = self.next().value
            node = Bin(op, node, self.parse_unary())
        return node

    def parse_unary(self) -> Node:
        if self.accept("sym", "-"):
            return Un("-", self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return Num(tok.value)
        if tok.kind == "ident":
            self.next()
            if self.accept("sym", "["):
                indices = [self.parse_expr()]
                while self.accept("sym", ","):
                    indices.append(self.parse_expr())
                self.expect("sym", "]")
                return Subscript(tok.value, tuple(indices))
            return Var(tok.value)
        if self.accept("sym", "("):
            node = self.parse_expr()
            self.expect("sym", ")")
            return node
        raise ParseError(
            f"unexpected token {tok.value!r} at line {tok.line}"
        )


class _Memo:
    """One text's memo entry: its AST and its translations by params."""

    __slots__ = ("tree", "translations")

    def __init__(self, tree: Block):
        self.tree = tree
        self.translations: Dict[tuple, object] = {}


class _ParseCache:
    """Thread-safe LRU of parsed programs keyed on the source text,
    bounded by ``REPRO_CACHE_SIZE`` (read on first use: the env reader
    lives in ``pipeline``, which the frontend does not import).  Each
    entry also keeps up to :attr:`TRANSLATIONS` translations of its
    text, the oldest dropped first; they leave with the text."""

    DEFAULT_MAXSIZE = 256
    TRANSLATIONS = 8

    def __init__(self):
        self._maxsize: Optional[int] = None
        self._entries: "OrderedDict[str, _Memo]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = self.misses = self.evictions = self.bytes = 0

    @property
    def maxsize(self) -> int:
        if self._maxsize is None:
            from ..pipeline.cache import _env_number

            self._maxsize = _env_number("REPRO_CACHE_SIZE",
                                        self.DEFAULT_MAXSIZE)
        return self._maxsize

    def get(self, source: str, count: bool = True) -> Optional[_Memo]:
        """The text's entry, or ``None``; *count* False only peeks (no
        counter moves, no LRU touch)."""
        with self._lock:
            entry = self._entries.get(source)
            if count and entry is None:
                self.misses += 1
            elif count:
                self._entries.move_to_end(source)
                self.hits += 1
            return entry

    def put(self, source: str, tree: Block) -> _Memo:
        maxsize = self.maxsize
        with self._lock:
            entry = self._entries.get(source)
            if entry is None:
                self.bytes += len(source.encode())
                entry = self._entries[source] = _Memo(tree)
            while len(self._entries) > maxsize:
                old, _ = self._entries.popitem(last=False)
                self.bytes -= len(old.encode())
                self.evictions += 1
            return entry

    def keep(self, entry: _Memo, key: tuple, program):
        """Memoize *program* as the translation *key* of *entry*; a
        translation already there wins, so racing threads share one."""
        with self._lock:
            kept = entry.translations.setdefault(key, program)
            while len(entry.translations) > self.TRANSLATIONS:
                del entry.translations[next(iter(entry.translations))]
            return kept

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.evictions = self.bytes = 0

    def info(self) -> Dict[str, int]:
        maxsize = self.maxsize
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions,
                    "size": len(self._entries), "maxsize": maxsize,
                    "bytes": self.bytes}


_parse_cache = _ParseCache()


def _memo(source: str) -> _Memo:
    """The text's memo entry, lexed and parsed on a miss."""
    entry = _parse_cache.get(source)
    if entry is None:
        entry = _parse_cache.put(
            source, Parser(tokenize(source)).parse_program())
    return entry


def parse(source: str) -> Block:
    """Parse a program text into its (immutable, shared) AST."""
    return _memo(source).tree


def count_parse_hit(source: str) -> None:
    """Count a hit on *source* (and touch it), as :func:`parse` would:
    a caller that peeked with ``translate_source(..., probe=True)``
    counts its hit once the rest of its lookups succeeded."""
    _parse_cache.get(source)


def parse_cache_info() -> Dict[str, int]:
    """Hit/miss/eviction/size counters and the text bytes held by the
    parse memo (``cache_stats()["parse"]``)."""
    return _parse_cache.info()


def clear_parse_cache() -> None:
    """Drop every memoized AST and translation and reset the counters."""
    _parse_cache.clear()
