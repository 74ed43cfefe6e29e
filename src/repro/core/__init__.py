"""V-cal: the view calculus of Paalvast, Sips & van Gemund (Section 2)."""

from .bounds import Bounds, EMPTY_1D
from .clause import Clause, Ordering, PAR, Program, SEQ
from .evaluator import (
    WriteConflictError,
    copy_env,
    evaluate_clause,
    evaluate_program,
    matches_reference,
)
from .expr import BinOp, Const, Expr, LoopIndex, Ref, UnOp
from .ifunc import (
    AffineF,
    ComposedF,
    ConstantF,
    IdentityF,
    IFunc,
    ModularF,
    MonotoneF,
    ceil_div,
    classify,
    floor_div,
)
from .indexset import IndexSet, Predicate, TRUE
from .view import (
    GeneralMap,
    IndexMap,
    ProjectedMap,
    SeparableMap,
    View,
    identity_map,
)

__all__ = [
    "Bounds",
    "EMPTY_1D",
    "IndexSet",
    "Predicate",
    "TRUE",
    "IFunc",
    "ConstantF",
    "AffineF",
    "IdentityF",
    "MonotoneF",
    "ModularF",
    "ComposedF",
    "classify",
    "ceil_div",
    "floor_div",
    "View",
    "IndexMap",
    "SeparableMap",
    "ProjectedMap",
    "GeneralMap",
    "identity_map",
    "Expr",
    "Const",
    "LoopIndex",
    "Ref",
    "BinOp",
    "UnOp",
    "Clause",
    "Program",
    "Ordering",
    "SEQ",
    "PAR",
    "evaluate_clause",
    "evaluate_program",
    "matches_reference",
    "copy_env",
    "WriteConflictError",
]
