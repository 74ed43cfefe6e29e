"""Modify/Reside set machinery (paper Sections 2.8 and 3)."""

from .enumerators import (
    Enumeration,
    Segment,
    enum_block,
    enum_constant,
    enum_naive,
    enum_piecewise,
    enum_repeated_block,
    enum_repeated_scatter,
    enum_scatter_linear,
    enum_scatter_on_k,
    enum_trivial,
)
from .membership import Work, all_naive, modify_naive, reside_naive
from .table1 import (
    OptimizedAccess,
    choose_rule,
    clear_table1_cache,
    optimize_access,
    table1_cache_info,
)

__all__ = [
    "Work",
    "modify_naive",
    "reside_naive",
    "all_naive",
    "Segment",
    "Enumeration",
    "enum_constant",
    "enum_block",
    "enum_repeated_block",
    "enum_repeated_scatter",
    "enum_scatter_linear",
    "enum_scatter_on_k",
    "enum_piecewise",
    "enum_naive",
    "enum_trivial",
    "OptimizedAccess",
    "optimize_access",
    "choose_rule",
    "table1_cache_info",
    "clear_table1_cache",
]
