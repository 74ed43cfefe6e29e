"""SPMD program generation (paper Sections 2.6-2.10 and 4).

Beyond the paper's core (plan / shared_tmpl / dist_tmpl / pysource /
redistribute), this package implements the extensions inventoried in
DESIGN.md: DOACROSS pipelines (:mod:`.doacross`), barrier elimination
(:mod:`.barriers`), d-dimensional generation (:mod:`.ndplan`,
:mod:`.nddist`), inspector/executor for indirect accesses
(:mod:`.inspector`), and inline Table I formula emission (:mod:`.gensrc`).
"""

from .autoselect import choose_dynamic, choose_static
from .barriers import barrier_removable, plan_barriers, run_program_shared
from .dist_tmpl import make_node_program, run_distributed
from .doacross import compile_doacross, run_doacross
from .exprsrc import CodegenError, expr_src, ifunc_src, local_src, proc_src
from .inspector import build_schedule, compile_indirect, run_executor
from .nddist import collect_nd, compile_clause_nd_dist, run_distributed_nd
from .ndplan import compile_clause_nd, run_shared_nd
from .plan import compile_clause
from .pysource import (
    RuntimeTables,
    compile_distributed,
    compile_shared,
    emit_distributed_source,
    emit_shared_source,
)
from .redistribute import make_redistribution_program, run_redistribution
from .reduction import ReduceOp, compile_reduce, run_reduce
from .shared_tmpl import run_shared, shared_phase

__all__ = [
    "choose_static",
    "choose_dynamic",
    "compile_doacross",
    "run_doacross",
    "barrier_removable",
    "plan_barriers",
    "run_program_shared",
    "compile_clause_nd",
    "run_shared_nd",
    "compile_clause_nd_dist",
    "run_distributed_nd",
    "collect_nd",
    "compile_indirect",
    "compile_reduce",
    "run_reduce",
    "ReduceOp",
    "build_schedule",
    "run_executor",
    "compile_clause",
    "run_shared",
    "shared_phase",
    "make_node_program",
    "run_distributed",
    "emit_distributed_source",
    "emit_shared_source",
    "compile_distributed",
    "compile_shared",
    "RuntimeTables",
    "CodegenError",
    "ifunc_src",
    "proc_src",
    "local_src",
    "expr_src",
    "make_redistribution_program",
    "run_redistribution",
]
