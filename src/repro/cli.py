"""Command-line interface: compile, run, and inspect SPMD generation.

Subcommands
-----------

``layout``   print a Fig. 2-style processor layout for a decomposition.
``compile``  translate a mini-language program, pick Table I rules, and
             emit the generated node-program source.
``check``    run the static clause verifier (races, communication
             completeness, bounds, decomposition lint) and report
             diagnostics; exits non-zero on errors (or, with
             ``--strict``, on warnings).
``run``      compile + execute on the simulated distributed machine,
             verify against the sequential evaluator, print statistics.
``derive``   print the §2.6-2.7 rewrite chain for the program's clause.

Decompositions are given as ``NAME=KIND:SIZE[:PARAM]`` with kinds
``block``, ``scatter``, ``bs`` (PARAM = block size), ``single``
(PARAM = owner), ``replicated``.  Example::

    python -m repro run prog.pal --pmax 4 \\
        --array A=block:24 --array B=scatter:48 --param n=24 --seed 7
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List

import numpy as np

from .backends import (
    BACKENDS,
    UnknownBackendError,
    backend_availability,
    backend_names,
    validate_backend,
)
from .codegen import compile_clause, emit_distributed_source, run_distributed
from .core import copy_env, evaluate_program, matches_reference
from .core.rewrite import derive_spmd
from .decomp import Block, BlockScatter, Decomposition, Replicated, Scatter, SingleOwner
from .frontend import TranslateError, translate_source

__all__ = ["main", "parse_decomposition"]


def parse_decomposition(spec: str, pmax: int) -> tuple[str, Decomposition]:
    """Parse ``NAME=KIND:SIZE[:PARAM]`` into a decomposition."""
    try:
        name, rest = spec.split("=", 1)
        parts = rest.split(":")
        kind = parts[0]
        n = int(parts[1])
        param = int(parts[2]) if len(parts) > 2 else None
    except (ValueError, IndexError):
        raise SystemExit(
            f"bad --array spec {spec!r}; expected NAME=KIND:SIZE[:PARAM]"
        ) from None
    try:
        if kind == "block":
            return name, Block(n, pmax, b=param)
        if kind == "scatter":
            return name, Scatter(n, pmax)
        if kind == "bs":
            if param is None:
                raise SystemExit(f"--array {spec!r}: bs needs a block size")
            return name, BlockScatter(n, pmax, param)
        if kind == "single":
            return name, SingleOwner(n, pmax, param or 0)
        if kind == "replicated":
            return name, Replicated(n, pmax)
    except ValueError as e:
        # constructor rejections (e.g. block size too small for n/pmax)
        raise SystemExit(f"bad --array spec {spec!r}: {e}") from None
    raise SystemExit(f"unknown decomposition kind {kind!r}")


def _parse_params(items: List[str]) -> Dict[str, int]:
    out = {}
    for item in items:
        try:
            k, v = item.split("=", 1)
            out[k] = int(v)
        except ValueError:
            raise SystemExit(
                f"bad --param {item!r}; expected NAME=INT") from None
    return out


def _parse_swap(items: List[str]) -> List[tuple]:
    """``--swap A:B`` pairs for the ``repeat`` time loop."""
    out = []
    for item in items:
        a, sep, b = item.partition(":")
        if not sep or not a.strip() or not b.strip():
            raise SystemExit(f"bad --swap {item!r}; expected A:B")
        out.append((a.strip(), b.strip()))
    return out


def _read_file(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _load_program(args):
    source = sys.stdin.read() if args.file == "-" else _read_file(args.file)
    params = _parse_params(args.param)
    try:
        return translate_source(source, params)
    except (SyntaxError, TranslateError) as e:
        # LexError and ParseError are SyntaxErrors
        raise SystemExit(f"error: {args.file}: {e}") from None


def _decomps(args) -> Dict[str, Decomposition]:
    if getattr(args, "spec", None):
        from .decomp.spec import SpecError, parse_spec

        try:
            out = parse_spec(_read_file(args.spec))
        except SpecError as e:
            raise SystemExit(f"error: {args.spec}: {e}") from None
        pmaxes = {d.pmax for d in out.values()}
        if len(pmaxes) > 1:
            raise SystemExit(
                f"spec {args.spec!r} mixes processor counts {sorted(pmaxes)}"
            )
        if out:
            args.pmax = next(iter(pmaxes))
        for s in args.array:
            name, dec = parse_decomposition(s, args.pmax)
            out[name] = dec
        return out
    if not args.array:
        raise SystemExit("no decompositions: pass --array or --spec")
    return dict(parse_decomposition(s, args.pmax) for s in args.array)


def _random_env(decomps: Dict[str, Decomposition], seed: int):
    for name, dec in decomps.items():
        if not hasattr(dec, "n"):
            raise SystemExit(
                f"error: array {name!r} is distributed over a processor "
                "grid; run and derive execute 1-D clauses (check accepts "
                "grid specs)")
    rng = np.random.default_rng(seed)
    return {name: rng.random(dec.n) for name, dec in decomps.items()}


def cmd_layout(args) -> int:
    _name, dec = parse_decomposition(f"X={args.spec}", args.pmax)
    lay = dec.layout()
    print(f"{type(dec).__name__}(n={dec.n}, pmax={dec.pmax}):")
    print("  element:   " + " ".join(f"{i:2d}" for i in range(dec.n)))
    print("  processor: " + " ".join(f"{p:2d}" for p in lay))
    return 0


def cmd_compile(args) -> int:
    if getattr(args, "json", False):
        # machine-readable mode: the JSON cache snapshot is the ONLY
        # stdout output (the serve stats endpoint and the bench harness
        # parse it); the compilation itself still runs normally
        import contextlib
        import io
        import json

        from .cacheinfo import cache_stats

        with contextlib.redirect_stdout(io.StringIO()):
            rc = _compile_body(args)
        print(json.dumps(cache_stats(), indent=2))
        return rc
    rc = _compile_body(args)
    if getattr(args, "cache_stats", False):
        print_cache_stats()
    return rc


def _compile_body(args) -> int:
    program = _load_program(args)
    decomps = _decomps(args)
    for clause in program:
        print(f"clause {clause.name}:")
        print(f"    {clause!r}")
        try:
            plan = compile_clause(clause, decomps)
        except ValueError as e:
            # e.g. a 2-D clause: the 1-D node-program emitter refuses
            # it; the program pipeline below still compiles and reports
            # the whole program.
            print(f"# node-program emission unavailable: {e}")
            print()
            continue
        print("rules:")
        for access, rule in plan.rules().items():
            print(f"    {access:14s} -> {rule}")
        if getattr(args, "explain", False):
            print()
            print(plan.trace.pretty(verbose=args.verbose))
        backend = getattr(args, "backend", "scalar")
        kernels = plan.kernels
        print()
        if backend != "scalar":
            # every other tier runs the compile-once kernels
            if kernels is not None:
                print(f"# fused kernels — {kernels.describe()}")
                print(kernels.source)
            else:
                print("# no fused kernels on this plan")
            if getattr(args, "explain", False) and backend == "mpi":
                _explain_mpi(plan, decomps, getattr(args, "processes", None))
            print()
            print(f"# {backend} backend: {BACKENDS[backend]} — runs the "
                  "kernels above;")
            print("# scalar §2.10 node program (the reference template, and "
                  "where a clause with no kernel form runs):")
        print(emit_distributed_source(plan))
    steps = max(1, getattr(args, "steps", 1) or 1)
    if len(list(program)) > 1 or steps > 1:
        from .analysis import verify_program
        from .pipeline import compile_program

        pir = compile_program(program, decomps, repeat=steps,
                              swap=_parse_swap(getattr(args, "swap", [])))
        verification = verify_program(pir)
        print(pir.describe())
        verdict = "clean" if verification.ok else (
            "FLAGGED: " + ", ".join(sorted(
                {d.code for d in verification.errors()})))
        print(f"  program verification: {verdict}")
        if getattr(args, "explain", False):
            print()
            print(pir.trace.pretty(verbose=args.verbose))
        print()
    return 0


def _explain_mpi(plan, decomps, processes=None) -> None:
    """``compile --backend mpi --explain``: probe verdict plus the
    node -> rank attachment over the Cartesian process grid."""
    from .mpi import mpi_support
    from .mpi.launcher import MPI
    from .pipeline.kernels import owner
    from .runtime.exec import _nprocs

    sup = mpi_support()
    print(f"# mpi tier: available={sup.available} mode={sup.mode} "
          f"({sup.reason})")
    pmax = plan.pmax
    wd = decomps.get(getattr(plan, "write_name", ""))
    grid = tuple(getattr(wd, "grid_shape", ()) or (pmax,))
    size = _nprocs(processes, pmax, MPI.knob)
    cart = ("Cartesian communicator dims="
            + "x".join(str(g) for g in grid)
            if len(grid) > 1
            else f"1-D communicator over {pmax} node(s)")
    print(f"# rank mapping: {size} rank(s), {cart}, row-major, "
          "reorder=False; each rank runs a contiguous run of nodes "
          "(node * nranks // pmax)")
    for r in range(size):
        nodes = [p for p in range(pmax) if owner(p, pmax, size) == r]
        if len(grid) > 1:
            coords = [tuple(int(c) for c in np.unravel_index(p, grid))
                      for p in nodes]
            print(f"#   rank {r} <- nodes {nodes} at grid coords {coords}")
        else:
            print(f"#   rank {r} <- nodes {nodes}")


def print_cache_stats() -> None:
    """One unified block: parse memo, plan, Table I, kernel, program and
    verifier-report caches, the mp runtime's shared-memory arena and the
    node-memory pool (``--json`` emits the same snapshot as one
    machine-readable object, see :func:`repro.cacheinfo.cache_stats`)."""
    from .cacheinfo import cache_stats

    cs = cache_stats()
    fc, pc, tc = cs["parse"], cs["plan"], cs["table1"]
    kc, gc = cs["kernel"], cs["program"]
    vc = cs["verify"]
    sf = cs["singleflight"]
    sm, nm = cs["shm"], cs["node_memory"]
    print("caches:")
    print(f"  parse:   hits={fc['hits']} misses={fc['misses']} "
          f"evictions={fc['evictions']} "
          f"size={fc['size']}/{fc['maxsize']} bytes={fc['bytes']}")
    print(f"  plan:    hits={pc['hits']} misses={pc['misses']} "
          f"evictions={pc['evictions']} "
          f"size={pc['size']}/{pc['maxsize']} enabled={pc['enabled']}")
    print(f"  table1:  hits={tc['hits']} misses={tc['misses']} "
          f"evictions={tc['evictions']} "
          f"size={tc['size']}/{tc['maxsize']}")
    print(f"  kernel:  hits={kc['hits']} misses={kc['misses']} "
          f"evictions={kc['evictions']} "
          f"size={kc['size']}/{kc['maxsize']} "
          f"bytes={kc['bytes']}/{kc['max_bytes']} enabled={kc['enabled']}")
    print(f"  program: hits={gc['hits']} misses={gc['misses']} "
          f"evictions={gc['evictions']} "
          f"size={gc['size']}/{gc['maxsize']} enabled={gc['enabled']}")
    print(f"  verify:  hits={vc['hits']} misses={vc['misses']} "
          f"evictions={vc['evictions']} "
          f"size={vc['size']}/{vc['maxsize']} enabled={vc['enabled']}")
    print(f"  flight:  leaders={sf['leaders']} waits={sf['waits']} "
          f"inflight={sf['inflight']}")
    print(f"  shm:     segments={sm['segments']} bytes={sm['bytes']}")
    print(f"  node_memory: leases={nm['leases']} reused={nm['reused']} "
          f"free_bytes={nm['free_bytes']} peak_bytes={nm['peak_bytes']}")


def cmd_check(args) -> int:
    """``repro check``: per-clause verifier reports plus (for programs)
    the whole-program verification — PROG/SCHED/KRN analyses over the
    compiled :class:`ProgramIR`.

    ``--json`` emits one object with the documented schema::

        {
          "clauses":  [DiagnosticReport.summary(), ...],   # per clause
          "program": {                       # null for bare single clauses
            "ok": bool,                      # no PROG/SCHED/KRN errors
            "errors": int, "warnings": int,
            "diagnostics": [Diagnostic.as_dict(), ...],
            "certificate": str | null,       # schedule proof, described
            "certified_deadlock_free": bool | null
          },
          "ok": bool,          # overall: no errors (and, under --strict,
          "errors": int,       #   no warnings either)
          "warnings": int
        }

    Exit status 0 iff ``ok`` (info-level findings never fail a check).
    """
    import json

    from .analysis import CODES, Diagnostic, DiagnosticReport, Severity
    from .pipeline import compile_plan

    program = _load_program(args)
    decomps = _decomps(args)
    clauses = list(program)
    steps = max(1, getattr(args, "steps", 1) or 1)
    swap = _parse_swap(getattr(args, "swap", []))

    def chk001(label: str, what: str, e: Exception) -> DiagnosticReport:
        report = DiagnosticReport(clause=label)
        report.add(Diagnostic(
            code="CHK001",
            message=f"{what} failed to compile: {e}",
            severity=Severity.ERROR,
            hint=CODES["CHK001"],
        ))
        return report.finish()

    reports = []
    for k, clause in enumerate(clauses):
        successor = clauses[k + 1] if k + 1 < len(clauses) else None
        try:
            ir = compile_plan(clause, decomps, successor=successor,
                              verify=True)
            reports.append(ir.diagnostics)
        except (KeyError, ValueError, NotImplementedError) as e:
            # the clause does not even compile — report that as a
            # verification failure rather than crashing the checker
            reports.append(chk001(clause.name or "<anonymous>", "clause", e))
    verification = None
    program_report = None
    if len(clauses) > 1 or steps > 1 or swap:
        from .analysis import verify_program
        from .pipeline import compile_program

        try:
            pir = compile_program(program, decomps, repeat=steps, swap=swap,
                                  verify=True)
            verification = verify_program(pir)
            program_report = verification.program
        except (KeyError, ValueError, NotImplementedError) as e:
            program_report = chk001("<program>", "program", e)
    errors = sum(len(r.errors()) for r in reports)
    warnings = sum(len(r.warnings()) for r in reports)
    if program_report is not None:
        errors += len(program_report.errors())
        warnings += len(program_report.warnings())
    ok = errors == 0 and not (args.strict and warnings)
    cert = verification.certificate if verification is not None else None
    if args.json:
        prog_section = None
        if program_report is not None:
            prog_section = {
                "ok": program_report.ok,
                "errors": len(program_report.errors()),
                "warnings": len(program_report.warnings()),
                "diagnostics": [d.as_dict()
                                for d in program_report.diagnostics],
                "certificate": cert.describe() if cert is not None else None,
                "certified_deadlock_free": (cert.ok if cert is not None
                                            else None),
            }
        print(json.dumps({
            "clauses": [r.summary() for r in reports],
            "program": prog_section,
            "ok": ok,
            "errors": errors,
            "warnings": warnings,
        }, indent=2))
    else:
        for report in reports:
            print(report.pretty())
        if program_report is not None:
            print(program_report.pretty())
            if cert is not None:
                print(f"schedule: {cert.describe()}")
        tail = f"{len(reports)} clause(s): {errors} error(s), " \
               f"{warnings} warning(s)"
        if args.strict and warnings and not errors:
            tail += "  [--strict: warnings are fatal]"
        print(tail)
    return 0 if ok else 1


def _print_run_stats(machine) -> None:
    """``run --stats``: machine counters plus, for mp runs, the
    per-worker runtime lines."""
    print(machine.stats.summary())
    for rstats in getattr(machine, "runtime_stats", []):
        print(f"    {rstats.describe()}")


def cmd_run(args) -> int:
    from .machine.fused import FusedStrictError
    from .runtime import WorkerCrashError

    program = _load_program(args)
    decomps = _decomps(args)
    env0 = _random_env(decomps, args.seed)
    strict = getattr(args, "strict", False)
    processes = getattr(args, "processes", None)
    timeout = getattr(args, "timeout", None)
    show_stats = getattr(args, "stats", False)
    steps = max(1, getattr(args, "steps", 1) or 1)
    swap = _parse_swap(getattr(args, "swap", []))
    av = backend_availability(args.backend)
    if not av.available:
        # one generic line per out-of-process tier
        print(f"note: {args.backend} tier unavailable ({av.reason}); "
              "running the fused fallback", file=sys.stderr)
    if args.shared:
        from .pipeline import (
            compile_program,
            evaluate_program_reference,
            run_program,
        )

        pir = compile_program(program, decomps, repeat=steps, swap=swap)
        if getattr(args, "explain", False):
            print(pir.trace.pretty())
            print()
        ref = evaluate_program_reference(pir, env0)
        try:
            machine, barriers = run_program(pir, env0, backend=args.backend,
                                            strict=strict,
                                            processes=processes,
                                            timeout=timeout)
        except FusedStrictError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        except WorkerCrashError as e:
            print(f"error: {e}", file=sys.stderr)
            return 3
        ok = True
        names = {c.lhs.name for c in program} | {n for pr in swap for n in pr}
        for name in sorted(names):
            good = matches_reference(machine.env[name], ref[name])
            ok &= good
            print(f"array {name}: {'OK' if good else 'MISMATCH'}")
        tail = f" over {steps} step(s)" if steps > 1 else ""
        print(f"shared-memory program run: {len(program)} clause(s), "
              f"{barriers} barrier(s) after elimination{tail}, "
              f"tests={machine.stats.total_tests()}")
        if show_stats:
            _print_run_stats(machine)
        return 0 if ok else 1
    if steps > 1 or swap:
        raise SystemExit("--steps/--swap apply to --shared program runs")
    ref = evaluate_program(program, copy_env(env0))
    ok = True
    for clause in program:
        plan = compile_clause(clause, decomps)
        try:
            machine = run_distributed(plan, env0, backend=args.backend,
                                      strict=strict, processes=processes,
                                      timeout=timeout)
        except FusedStrictError as e:
            print(f"error: clause {clause.name}: {e}", file=sys.stderr)
            return 2
        except WorkerCrashError as e:
            print(f"error: clause {clause.name}: {e}", file=sys.stderr)
            return 3
        result = machine.collect(plan.write_name)
        env0[plan.write_name] = result  # thread state between clauses
        good = matches_reference(result, ref[plan.write_name])
        ok &= good
        s = machine.stats
        print(f"clause {clause.name}: {'OK' if good else 'MISMATCH'}  "
              f"messages={s.total_messages()} "
              f"elements={s.total_elements_moved()} "
              f"updates={s.total_updates()} tests={s.total_tests()}")
        if show_stats:
            _print_run_stats(machine)
        if args.show:
            print(f"    {plan.write_name} = {np.round(result, 4)}")
    return 0 if ok else 1


def cmd_derive(args) -> int:
    program = _load_program(args)
    decomps = _decomps(args)
    for clause in program:
        d = derive_spmd(clause, decomps)
        print(f"derivation of clause {clause.name}:")
        print(d.pretty())
        env0 = _random_env(decomps, args.seed)
        d.check(env0)
        print("    (all steps semantics-checked: OK)\n")
    return 0


def cmd_calibrate(args) -> int:
    """``repro calibrate``: measure this host's alpha/beta (ping-pong)
    and t_element (stencil microbench), print the machine description,
    optionally save it for ``$REPRO_MACHINE_FILE`` consumers."""
    import json

    from .machine.calibrate import CalibrationError, calibrate

    try:
        sizes = tuple(int(s) for s in args.sizes.split(",") if s.strip())
    except ValueError:
        raise SystemExit(
            f"bad --sizes {args.sizes!r}; expected comma-separated ints"
        ) from None
    if not sizes or min(sizes) < 1:
        raise SystemExit(f"bad --sizes {args.sizes!r}; need positive ints")
    try:
        md = calibrate(sizes=sizes, reps=args.reps, timeout=args.timeout)
    except CalibrationError as e:
        print(f"error: calibration failed: {e}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(md.as_dict(), indent=2))
    else:
        print(md.describe())
        cm = md.cost_model()
        print(f"cost model (t_update units): alpha={cm.alpha:.1f} "
              f"beta={cm.beta:.3f} t_barrier={cm.t_barrier:.1f}")
        for n, t in md.points:
            print(f"    one_way({n:>6d} elems) = {t * 1e6:9.2f} us")
    if args.out:
        md.save(args.out)
        print(f"saved machine description to {args.out}",
              file=sys.stderr)
    return 0


def cmd_serve(args) -> int:
    from .serve import serve_main

    return serve_main(args)


def cmd_client(args) -> int:
    """``repro client ADDRESS OP [...]``: one request, JSON to stdout."""
    import json

    from .serve import ServeClient, ServeError

    req: Dict[str, object] = {"op": args.op, "tenant": args.tenant}
    if args.op in ("compile", "check", "run"):
        if not args.file:
            raise SystemExit(f"op {args.op!r} needs --file")
        source = sys.stdin.read() if args.file == "-" \
            else _read_file(args.file)
        req.update({
            "program": source,
            "arrays": list(args.array),
            "params": _parse_params(args.param),
            "pmax": args.pmax,
            "steps": args.steps,
            "swap": list(args.swap),
            "backend": args.backend,
        })
        if args.op == "compile":
            req["verify"] = args.verify
        if args.op in ("check", "run"):
            req["strict"] = args.strict
        if args.op == "run":
            req["seed"] = args.seed
            if args.shared:
                req["shared"] = True
    try:
        with ServeClient(args.address) as client:
            result = client.call(**req)
    except ServeError as e:
        print(json.dumps({"ok": False,
                          "error": {"code": e.code, "message": str(e)}},
                         indent=2))
        return 1
    except (OSError, ConnectionError) as e:
        print(f"error: cannot reach repro-serve at {args.address!r}: {e}",
              file=sys.stderr)
        return 1
    print(json.dumps({"ok": True, "result": result}, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro",
        description="SPMD program generation from data decompositions "
                    "(Paalvast, Sips & van Gemund, ICPP 1991)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    lay = sub.add_parser("layout", help="print a Fig. 2-style layout")
    lay.add_argument("spec", help="KIND:SIZE[:PARAM], e.g. bs:15:2")
    lay.add_argument("--pmax", type=int, default=4)
    lay.set_defaults(fn=cmd_layout)

    def common(p):
        p.add_argument("file", help="program file ('-' for stdin)")
        p.add_argument("--pmax", type=int, default=4)
        p.add_argument("--array", action="append", default=[],
                       metavar="NAME=KIND:SIZE[:PARAM]")
        p.add_argument("--spec", metavar="FILE",
                       help="decomposition specification file "
                            "(see repro.decomp.spec)")
        p.add_argument("--param", action="append", default=[],
                       metavar="NAME=INT")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--no-plan-cache", action="store_true",
                       help="disable the compile-once plan cache "
                            "(every clause recompiles from scratch)")

    comp = sub.add_parser("compile", help="emit generated node programs")
    common(comp)
    comp.add_argument("--explain", action="store_true",
                      help="print the pass pipeline trace (ordered passes "
                           "with per-pass rewrite counts and timings)")
    comp.add_argument("--verbose", action="store_true",
                      help="with --explain: include before/after IR "
                           "snapshots per pass")
    comp.add_argument("--backend", default="scalar", metavar="BACKEND",
                      help="tier whose program is shown, one of: "
                           f"{', '.join(backend_names())} (scalar prints "
                           "the §2.10 node program; fused/mp/mpi print "
                           "the compile-once kernel source before it; "
                           "with --explain mpi adds the probe verdict and "
                           "the rank mapping)")
    comp.add_argument("--cache-stats", action="store_true",
                      help="print one unified block of parse-, plan-, "
                           "Table I enumerator-, kernel-, program- and "
                           "verify-cache hit/miss/eviction counters "
                           "after compiling")
    comp.add_argument("--json", action="store_true",
                      help="with --cache-stats: emit the cache counters "
                           "as one machine-readable JSON object (the "
                           "only stdout output; the serve stats endpoint "
                           "and bench harness parse it)")
    comp.add_argument("--steps", type=int, default=1, metavar="N",
                      help="compile the program as an N-iteration time "
                           "loop (repeat form; shows the pipelining "
                           "decision with --explain)")
    comp.add_argument("--swap", action="append", default=[],
                      metavar="A:B",
                      help="buffer pair exchanged after every time-loop "
                           "iteration (repeatable)")
    comp.add_argument("--processes", "--np", dest="processes", type=int,
                      default=None, metavar="N",
                      help="with --backend mpi --explain: rank count for "
                           "the node -> rank mapping shown")
    comp.set_defaults(fn=cmd_compile)

    chk = sub.add_parser(
        "check", help="statically verify clauses and whole programs "
                      "(races, communication, bounds, lint; inter-clause "
                      "PROG, schedule SCHED, kernel KRN analyses)")
    common(chk)
    chk.add_argument("--strict", action="store_true",
                     help="treat warnings as fatal (non-zero exit)")
    chk.add_argument("--json", action="store_true",
                     help="emit machine-readable diagnostics (documented "
                          "schema; see cmd_check)")
    chk.add_argument("--steps", type=int, default=1, metavar="N",
                     help="verify the program as an N-iteration time loop "
                          "(repeat form; the PROG analyses re-check the "
                          "pipelining decision)")
    chk.add_argument("--swap", action="append", default=[], metavar="A:B",
                     help="buffer pair exchanged after every time-loop "
                          "iteration (repeatable; checked for placement "
                          "compatibility)")
    chk.set_defaults(fn=cmd_check)

    run = sub.add_parser("run", help="execute on the simulated machine")
    common(run)
    run.add_argument("--show", action="store_true",
                     help="print resulting arrays")
    run.add_argument("--shared", action="store_true",
                     help="run on the shared-memory machine with barrier "
                          "elimination (whole program, fused phases)")
    run.add_argument("--backend", default="scalar", metavar="BACKEND",
                     help=f"one of: {', '.join(backend_names())} — scalar "
                          "per-element templates, the compile-once "
                          "fused kernel executor (interior computed "
                          "while messages are in flight), the "
                          "multi-process runtime (real "
                          "OS processes + shared memory), or the mpi "
                          "SPMD runtime under mpiexec (fused fallback "
                          "when mpi4py is absent)")
    run.add_argument("--strict", action="store_true",
                     help="with --backend fused/mp/mpi: refuse to "
                          "execute clauses the static verifier flagged "
                          "RACE*/COMM*")
    run.add_argument("--processes", "--np", dest="processes", type=int,
                     default=None, metavar="N",
                     help="with --backend mp/mpi: worker process or MPI "
                          "rank count (default: min(pmax, 8); each runs a "
                          "contiguous run of nodes when N < pmax)")
    run.add_argument("--timeout", type=float, default=None, metavar="SEC",
                     help="with --backend mp/mpi: per-run execution "
                          "timeout in seconds (a hung run raises a crash "
                          "error instead of blocking forever)")
    run.add_argument("--stats", action="store_true",
                     help="print the machine statistics summary (and, for "
                          "--backend mp, per-worker kernel/communication/"
                          "barrier timings)")
    run.add_argument("--steps", type=int, default=1, metavar="N",
                     help="with --shared: run the program as an "
                          "N-iteration time loop (compiled once; "
                          "pipelined when every boundary elides)")
    run.add_argument("--swap", action="append", default=[], metavar="A:B",
                     help="with --shared --steps: buffer pair exchanged "
                          "after every iteration (repeatable)")
    run.add_argument("--explain", action="store_true",
                     help="with --shared: print the program pass trace "
                          "(redistribution elision, clause fusion, "
                          "time-loop pipelining decisions) before running")
    run.set_defaults(fn=cmd_run)

    der = sub.add_parser("derive", help="print the §2.6 rewrite chain")
    common(der)
    der.set_defaults(fn=cmd_derive)

    cal = sub.add_parser(
        "calibrate", help="measure this host's message latency (alpha), "
                          "per-element bandwidth (beta) and compute rate "
                          "(t_element); writes a machine description "
                          "JSON the cost model and benchmarks cite")
    cal.add_argument("--out", default=None, metavar="FILE",
                     help="save the machine description JSON here "
                          "(point $REPRO_MACHINE_FILE at it)")
    cal.add_argument("--sizes", default="1,8,64,512,4096,32768",
                     metavar="N,N,...",
                     help="ping-pong message sizes in float64 elements")
    cal.add_argument("--reps", type=int, default=50, metavar="N",
                     help="round trips per message size")
    cal.add_argument("--timeout", type=float, default=120.0,
                     metavar="SEC",
                     help="deadline for the mpiexec ping-pong before "
                          "falling back to the pipe proxy")
    cal.add_argument("--json", action="store_true",
                     help="print the full machine description as JSON "
                          "instead of the human summary")
    cal.set_defaults(fn=cmd_calibrate)

    srv = sub.add_parser(
        "serve", help="long-lived async compile-and-run daemon sharing "
                      "the warm caches across many clients "
                      "(newline-delimited JSON protocol; docs/serving.md)")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=0, metavar="N",
                     help="TCP port (0 = ephemeral; the bound address is "
                          "printed on startup)")
    srv.add_argument("--unix", default=None, metavar="PATH",
                     help="listen on a Unix socket instead of TCP")
    srv.add_argument("--workers", type=int, default=None, metavar="N",
                     help="executor thread count for CPU-heavy compiles "
                          "and runs (default: ThreadPoolExecutor's)")
    srv.add_argument("--quota", type=int, default=0, metavar="N",
                     help="per-tenant concurrent in-flight request cap "
                          "(0 = unlimited)")
    srv.add_argument("--request-timeout", type=float, default=None,
                     metavar="SEC",
                     help="per-request deadline; a lapsed request gets a "
                          "timeout error while any coalesced compile "
                          "keeps running")
    srv.add_argument("--no-single-flight", action="store_true",
                     help="disable request coalescing (benchmark "
                          "ablation; identical concurrent compiles each "
                          "occupy an executor slot)")
    srv.add_argument("--drain-timeout", type=float, default=10.0,
                     metavar="SEC",
                     help="grace period for in-flight requests on "
                          "shutdown/SIGTERM before pools are disposed")
    srv.set_defaults(fn=cmd_serve)

    cli = sub.add_parser(
        "client", help="send one request to a running repro-serve daemon "
                       "and print the JSON response")
    cli.add_argument("address", help="host:port or Unix socket path")
    cli.add_argument("op", choices=["ping", "compile", "check", "run",
                                    "stats", "clear", "shutdown"])
    cli.add_argument("--file", default=None,
                     help="program file ('-' for stdin) for "
                          "compile/check/run")
    cli.add_argument("--pmax", type=int, default=4)
    cli.add_argument("--array", action="append", default=[],
                     metavar="NAME=KIND:SIZE[:PARAM]")
    cli.add_argument("--param", action="append", default=[],
                     metavar="NAME=INT")
    cli.add_argument("--seed", type=int, default=0)
    cli.add_argument("--steps", type=int, default=1, metavar="N")
    cli.add_argument("--swap", action="append", default=[], metavar="A:B")
    cli.add_argument("--backend", default="fused", metavar="BACKEND")
    cli.add_argument("--shared", action="store_true")
    cli.add_argument("--verify", action="store_true")
    cli.add_argument("--strict", action="store_true")
    cli.add_argument("--tenant", default="default")
    cli.set_defaults(fn=cmd_client)
    return ap


def main(argv: List[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if hasattr(args, "backend"):
        try:
            validate_backend(args.backend, context=args.command)
        except UnknownBackendError as e:
            raise SystemExit(f"error: {e}") from None
    if getattr(args, "no_plan_cache", False):
        from .pipeline import enable_plan_cache

        enable_plan_cache(False)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
