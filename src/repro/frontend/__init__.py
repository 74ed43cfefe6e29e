"""Front-end mini-language (paper Fig. 1): lexer, parser, V-cal translation."""

from .ast import Assign, Bin, Block, For, If, Node, Num, Subscript, Un, Var
from .lexer import LexError, tokenize
from .parser import (
    ParseError,
    Parser,
    clear_parse_cache,
    count_parse_hit,
    parse,
    parse_cache_info,
)
from .translate import (
    TranslateError,
    classify_index_expr,
    translate,
    translate_source,
)

__all__ = [
    "tokenize",
    "LexError",
    "parse",
    "Parser",
    "ParseError",
    "parse_cache_info",
    "clear_parse_cache",
    "count_parse_hit",
    "translate",
    "translate_source",
    "TranslateError",
    "classify_index_expr",
    "Node",
    "Num",
    "Var",
    "Bin",
    "Un",
    "Subscript",
    "Assign",
    "If",
    "For",
    "Block",
]
