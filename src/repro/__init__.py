"""repro — reproduction of *Automatic Parallel Program Generation and
Optimization from Data Decompositions* (Paalvast, Sips & van Gemund,
ICPP 1991).

The package implements the paper's V-cal view calculus, data
decompositions (block / scatter / block-scatter and extensions), the
compile-time membership-set optimizations of Table I, SPMD program
generation for shared- and distributed-memory machines, and deterministic
simulated machines to execute the generated programs on.

Typical use::

    from repro import (
        translate_source, compile_clause, run_distributed,
        Block, Scatter, evaluate_program, copy_env,
    )

    prog = translate_source('''
        for i := 0 to n - 1 par do
            A[i] := B[2 * i + 1] + 1;
        od;
    ''', params={"n": 50})
    plan = compile_clause(prog.clauses[0], {"A": Block(50, 4),
                                            "B": Scatter(100, 4)})
    machine = run_distributed(plan, {"A": a0, "B": b0})
    result = machine.collect("A")

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every reproduced table and figure.
"""

from .analysis import (
    Diagnostic,
    DiagnosticReport,
    Severity,
    verify_clause,
)
from .backends import UnknownBackendError, backend_names, validate_backend
from .baselines import run_distributed_naive, run_shared_naive
from .codegen import (
    compile_clause,
    compile_distributed,
    compile_shared,
    emit_distributed_source,
    emit_shared_source,
    run_distributed,
    run_redistribution,
    run_shared,
)
from .core import (
    PAR,
    SEQ,
    AffineF,
    BinOp,
    Bounds,
    Clause,
    Const,
    ConstantF,
    Expr,
    IdentityF,
    IFunc,
    IndexSet,
    LoopIndex,
    ModularF,
    MonotoneF,
    Ordering,
    Predicate,
    Program,
    Ref,
    SeparableMap,
    View,
    copy_env,
    evaluate_clause,
    evaluate_program,
)
from .decomp import (
    Block,
    BlockScatter,
    Decomposition,
    GridDecomposition,
    Replicated,
    Scatter,
    SingleOwner,
    plan_redistribution,
)
from .frontend import parse, translate, translate_source
from .machine import DistributedMachine, MachineStats, SharedMachine
from .pipeline import clear_plan_cache, plan_cache_info
from .runtime import (
    MpMachine,
    RuntimeStats,
    WorkerCrashError,
    run_distributed_mp,
    run_shared_mp,
    shutdown_runtime,
)
from .sets import Work, modify_naive, optimize_access

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core calculus
    "Bounds", "IndexSet", "Predicate", "View", "SeparableMap",
    "IFunc", "ConstantF", "AffineF", "IdentityF", "MonotoneF", "ModularF",
    "Expr", "Const", "LoopIndex", "Ref", "BinOp",
    "Clause", "Program", "Ordering", "SEQ", "PAR",
    "evaluate_clause", "evaluate_program", "copy_env",
    # decompositions
    "Decomposition", "Block", "Scatter", "BlockScatter", "SingleOwner",
    "Replicated", "GridDecomposition",
    "plan_redistribution",
    # membership sets
    "Work", "modify_naive", "optimize_access",
    # codegen
    "compile_clause", "run_shared", "run_distributed",
    "compile_shared", "compile_distributed",
    "emit_shared_source", "emit_distributed_source", "run_redistribution",
    # static analysis
    "Diagnostic", "DiagnosticReport", "Severity", "verify_clause",
    # backend registry
    "UnknownBackendError", "backend_names", "validate_backend",
    # multi-process runtime
    "MpMachine", "RuntimeStats", "WorkerCrashError",
    "run_distributed_mp", "run_shared_mp", "shutdown_runtime",
    # plan cache
    "clear_plan_cache", "plan_cache_info",
    # baselines
    "run_shared_naive", "run_distributed_naive",
    # machines
    "SharedMachine", "DistributedMachine", "MachineStats",
    # frontend
    "parse", "translate", "translate_source",
]
