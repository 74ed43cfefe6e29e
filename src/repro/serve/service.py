"""The compile-and-run service behind ``repro serve``.

:class:`ReproService` is transport-agnostic: it maps one request dict to
one response dict (``handle``), and the server layer feeds it lines from
sockets.  Design of the hot path:

* **Warm caches are the product.**  Every compile routes through the
  ordinary process-global caches (the frontend's parse memo; plan,
  kernel, Table I, verify, program), so all clients share one warm
  state — the service adds no cache of its own, it *multiplexes* the
  existing ones.
* **A hot compile is lookups.**  A seen text hits the parse memo, which
  keeps its translation too: every request for it shares one set of
  frozen clauses.  A program is one program-cache lookup whose entry
  already holds those clauses, so the hit re-anchors nothing and only
  gets a fresh trace; its per-clause entries are read off
  ``pir.steps``.  A warm request lexes, parses, translates and runs no
  pass.
* **Single-flight compilation.**  N concurrent identical compile/check
  requests collapse onto one pipeline execution via an async
  :class:`~repro.serve.singleflight.SingleFlight` keyed on the request's
  canonical text (and, one layer down, the thread-level
  :data:`~repro.pipeline.cache.compile_flight` guards the structural
  key itself).  Failures are never cached; cancelled clients never
  cancel the shared work.
* **The event loop never parses, translates, compiles, verifies or
  executes.**  It answers a ``compile`` itself when every step is a
  lookup: a memoized translation, then a program-cache (or plan-cache)
  hit that already holds its verdicts when ``verify`` is asked.  The
  probe is the caches' own hit path
  (:func:`~repro.pipeline.cached_program`,
  :func:`~repro.pipeline.cached_plan`); a probe that misses counts
  nothing and takes no lock an executor thread holds across long work.
  Everything else (``run``, ``check``, every miss) happens on a bounded
  ``ThreadPoolExecutor`` under single-flight, while the loop routes
  requests and awaits futures: an executor hop buys a pure-Python
  lookup nothing, since the GIL serializes it anyway.
  ``backend="mp"`` runs additionally serialize on one lock — the
  :class:`~repro.runtime.pool.WorkerPool` command protocol is
  parent-side single-threaded by design.
* **Per-tenant quotas and deadlines.**  A tenant exceeding its
  concurrent in-flight cap gets ``quota-exceeded`` immediately; a
  request exceeding the deadline gets ``timeout`` while any shared
  in-flight compile it piggybacked on keeps running for its peers.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from ..backends import UnknownBackendError, validate_backend
from ..cacheinfo import cache_stats, clear_all_caches
from .protocol import (
    ERR_BADREQ,
    ERR_COMPILE,
    ERR_INTERNAL,
    ERR_QUOTA,
    ERR_RUN,
    ERR_TIMEOUT,
    OPS,
    error_response,
    ok_response,
    request_key,
)
from .singleflight import SingleFlight

__all__ = ["ReproService", "ServiceError"]


class ServiceError(Exception):
    """A request-level failure with a protocol error code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass
class TenantState:
    active: int = 0
    total: int = 0
    rejected: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {"active": self.active, "total": self.total,
                "rejected": self.rejected}


@dataclass
class _Parsed:
    """One request's decoded program fields."""

    program: Any
    clauses: list
    decomps: Dict[str, object]
    pmax: int
    steps: int
    swap: list
    backend: str
    is_program: bool = field(init=False)

    def __post_init__(self):
        self.is_program = len(self.clauses) > 1 or self.steps > 1 \
            or bool(self.swap)


class ReproService:
    """Shared-cache compile/check/run service (one per daemon)."""

    def __init__(self, *, workers: Optional[int] = None, quota: int = 0,
                 request_timeout: Optional[float] = None,
                 single_flight: bool = True):
        self.executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve")
        self.workers = self.executor._max_workers
        self.quota = int(quota)
        self.request_timeout = request_timeout
        self.single_flight = bool(single_flight)
        self.flight = SingleFlight()
        self.tenants: Dict[str, TenantState] = {}
        self.started = time.monotonic()
        self.requests: Dict[str, int] = {}
        self.errors: Dict[str, int] = {}
        self.compiles_executed = 0
        self.answered_on_loop = 0
        self.checks_executed = 0
        self.runs_executed = 0
        self.draining = False
        self._mp_lock = threading.Lock()
        self._count_lock = threading.Lock()

    def close(self) -> None:
        self.executor.shutdown(wait=True)

    # -- request entry ------------------------------------------------------

    async def handle(self, req: Any) -> Dict[str, Any]:
        """One request dict in, one response dict out.  Never raises for
        request-level failures — they become error responses."""
        rid = req.get("id") if isinstance(req, dict) else None
        tenant_state = None
        try:
            if not isinstance(req, dict):
                raise ServiceError(ERR_BADREQ, "request must be an object")
            op = req.get("op")
            if op not in OPS:
                raise ServiceError(
                    ERR_BADREQ,
                    f"unknown op {op!r}; expected one of {sorted(OPS)}")
            if self.draining and op not in ("ping", "stats"):
                raise ServiceError(ERR_RUN, "server is draining")
            self._bump(self.requests, op)
            tenant = str(req.get("tenant", "default"))
            ts = self.tenants.setdefault(tenant, TenantState())
            ts.total += 1
            if op in ("compile", "check", "run"):
                if self.quota and ts.active >= self.quota:
                    ts.rejected += 1
                    raise ServiceError(
                        ERR_QUOTA,
                        f"tenant {tenant!r} has {ts.active} request(s) in "
                        f"flight (quota {self.quota})")
                ts.active += 1
                tenant_state = ts
            timeout = req.get("timeout_s", self.request_timeout)
            coro = self._dispatch(op, req)
            if timeout:
                result = await asyncio.wait_for(coro, float(timeout))
            else:
                result = await coro
            return ok_response(rid, result)
        except ServiceError as e:
            self._bump(self.errors, e.code)
            return error_response(rid, e.code, str(e))
        except asyncio.TimeoutError:
            self._bump(self.errors, ERR_TIMEOUT)
            return error_response(
                rid, ERR_TIMEOUT,
                "request deadline lapsed (a coalesced in-flight compile "
                "keeps running for its other waiters)")
        except asyncio.CancelledError:
            raise
        except Exception as e:  # noqa: BLE001 — the daemon must not die
            self._bump(self.errors, ERR_INTERNAL)
            return error_response(rid, ERR_INTERNAL,
                                  f"{type(e).__name__}: {e}")
        finally:
            if tenant_state is not None:
                tenant_state.active -= 1

    async def _dispatch(self, op: str, req: Dict[str, Any]) -> Dict[str, Any]:
        if op == "ping":
            return {"pong": True}
        if op == "stats":
            return self.stats()
        if op == "clear":
            return {"cleared": True,
                    "caches": await self._offload(clear_all_caches)}
        if op == "shutdown":
            self.draining = True
            return {"draining": True}
        if op == "compile":
            return await self._coalesced(req, self._do_compile,
                                         self._compile_on_loop)
        if op == "check":
            return await self._coalesced(req, self._do_check)
        return await self._offload(self._do_run, req)

    async def _coalesced(self, req, worker, on_loop=None) -> Dict[str, Any]:
        key = request_key(req) if self.single_flight else None
        # a request identical to one in flight joins it; any other is
        # answered here when that takes lookups alone
        if on_loop is not None and key not in self.flight:
            result = on_loop(req)
            if result is not None:
                self.answered_on_loop += 1
                return result
            # a miss yields once, so requests that arrived together are
            # all probed before the executor computes any of them
            await asyncio.sleep(0)
        if key is None:
            return await self._offload(worker, req)
        return await self.flight.do(
            key, lambda: self._offload(worker, req))

    async def _offload(self, fn, *args):
        return await asyncio.get_running_loop().run_in_executor(
            self.executor, fn, *args)

    def _bump(self, counter: Dict[str, int], key: str) -> None:
        with self._count_lock:
            counter[key] = counter.get(key, 0) + 1

    # -- stats --------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        from ..runtime import runtime_info

        return {
            "server": {
                "uptime_s": round(time.monotonic() - self.started, 3),
                "workers": self.workers,
                "quota": self.quota,
                "draining": self.draining,
                "requests": dict(self.requests),
                "errors": dict(self.errors),
                "compiles_executed": self.compiles_executed,
                "answered_on_loop": self.answered_on_loop,
                "checks_executed": self.checks_executed,
                "runs_executed": self.runs_executed,
                "singleflight": {
                    "enabled": self.single_flight,
                    "leaders": self.flight.leaders,
                    "coalesced": self.flight.coalesced,
                    "inflight": self.flight.inflight(),
                },
                "tenants": {name: ts.snapshot()
                            for name, ts in self.tenants.items()},
            },
            "caches": cache_stats(),
            "runtime": {str(n): info
                        for n, info in runtime_info().items()},
        }

    # -- executor-side workers ----------------------------------------------

    def _parse(self, req: Dict[str, Any], probe: bool = False
               ) -> Optional[_Parsed]:
        """The request's program fields; with *probe*, ``None`` unless
        the text's translation is memoized (nothing is translated)."""
        from ..cli import _parse_swap, parse_decomposition
        from ..frontend import translate_source

        source = req.get("program")
        if not isinstance(source, str) or not source.strip():
            raise ServiceError(ERR_BADREQ, "missing program source")
        arrays = req.get("arrays") or []
        params = req.get("params") or {}
        try:
            pmax = int(req.get("pmax", 4))
            steps = max(1, int(req.get("steps", 1) or 1))
            params = {str(k): int(v) for k, v in dict(params).items()}
            arrays = [str(a) for a in arrays]
            swap_items = [str(s) for s in (req.get("swap") or [])]
        except (TypeError, ValueError, AttributeError) as e:
            raise ServiceError(ERR_BADREQ, f"bad request fields: {e}") \
                from None
        backend = str(req.get("backend", "fused"))
        try:
            validate_backend(backend, context="serve")
        except UnknownBackendError as e:
            raise ServiceError(ERR_BADREQ, str(e)) from None
        try:
            swap = _parse_swap(swap_items)
            decomps = dict(parse_decomposition(a, pmax) for a in arrays)
            program = translate_source(source, params, probe=probe)
        except SystemExit as e:
            raise ServiceError(ERR_BADREQ, str(e)) from None
        except (KeyError, ValueError, SyntaxError) as e:
            raise ServiceError(ERR_BADREQ,
                               f"{type(e).__name__}: {e}") from None
        if not decomps:
            raise ServiceError(ERR_BADREQ,
                               "no decompositions: pass \"arrays\"")
        if program is None:
            return None
        return _Parsed(program=program, clauses=list(program),
                       decomps=decomps, pmax=pmax, steps=steps, swap=swap,
                       backend=backend)

    def _compile_on_loop(self, req: Dict[str, Any]
                         ) -> Optional[Dict[str, Any]]:
        """The ``compile`` result when every step is a lookup, or
        ``None``: nothing was counted, and the request goes on to the
        executor (which reports any error)."""
        from ..frontend import count_parse_hit
        from ..pipeline import cached_plan, cached_program

        try:
            p = self._parse(req, probe=True)
            result = None if p is None else self._compile(
                p, req, cached_program, cached_plan)
        except (ServiceError, KeyError, ValueError, NotImplementedError):
            return None
        if result is not None:
            count_parse_hit(req["program"])
        return result

    def _do_compile(self, req: Dict[str, Any]) -> Dict[str, Any]:
        from ..pipeline import compile_plan, compile_program

        p = self._parse(req)
        with self._count_lock:
            self.compiles_executed += 1
        try:
            return self._compile(p, req, compile_program, compile_plan)
        except (KeyError, ValueError, NotImplementedError) as e:
            raise ServiceError(ERR_COMPILE,
                               f"{type(e).__name__}: {e}") from None

    @staticmethod
    def _compile(p: _Parsed, req, program_fn, plan_fn
                 ) -> Optional[Dict[str, Any]]:
        """The ``compile`` result through *program_fn* / *plan_fn* (the
        compiling or the cache-only pair), ``None`` when one of them
        returns it.  A program compiles each clause once, inside
        *program_fn*: its per-clause entries are read off the steps."""
        verify = bool(req.get("verify", False))
        pir = None
        if p.is_program:
            pir = program_fn(p.program, p.decomps, repeat=p.steps,
                             swap=p.swap, verify=verify)
            irs = [st.ir for st in pir.steps] if pir else [None]
        else:
            irs = [plan_fn(clause, p.decomps, verify=verify)
                   for clause in p.clauses]
        if any(ir is None for ir in irs):
            return None
        clauses_out = []
        for ir in irs:
            entry = {
                "name": ir.clause.name,
                "cache_hit": bool(ir.trace.cache_hit),
                "rules": ir.rules(),
                "fused": ir.kernels is not None,
            }
            if verify and ir.diagnostics is not None:
                entry["diagnostics"] = ir.diagnostics.summary()
            clauses_out.append(entry)
        result: Dict[str, Any] = {"clauses": clauses_out,
                                  "backend": p.backend}
        if pir is not None:
            result["program"] = {
                "cache_hit": bool(pir.trace.cache_hit),
                "steps": len(pir.steps),
                "repeat": pir.repeat,
                "barriers_per_step": pir.barriers_per_step(),
                "pipelined": pir.pipelined,
                "pipeline_reason": pir.pipeline_reason,
                "describe": pir.describe(),
            }
        return result

    def _do_check(self, req: Dict[str, Any]) -> Dict[str, Any]:
        """The ``repro check --json`` schema, served warm."""
        from ..analysis import (
            CODES,
            Diagnostic,
            DiagnosticReport,
            Severity,
            verify_program,
        )
        from ..pipeline import compile_plan, compile_program

        p = self._parse(req)
        strict = bool(req.get("strict", False))
        with self._count_lock:
            self.checks_executed += 1

        def chk001(label, what, e):
            report = DiagnosticReport(clause=label)
            report.add(Diagnostic(
                code="CHK001",
                message=f"{what} failed to compile: {e}",
                severity=Severity.ERROR, hint=CODES["CHK001"]))
            return report.finish()

        reports = []
        for k, clause in enumerate(p.clauses):
            successor = p.clauses[k + 1] if k + 1 < len(p.clauses) else None
            try:
                ir = compile_plan(clause, p.decomps, successor=successor,
                                  verify=True)
                reports.append(ir.diagnostics)
            except (KeyError, ValueError, NotImplementedError) as e:
                reports.append(
                    chk001(clause.name or "<anonymous>", "clause", e))
        verification = None
        program_report = None
        if p.is_program:
            try:
                pir = compile_program(p.program, p.decomps, repeat=p.steps,
                                      swap=p.swap, verify=True)
                verification = verify_program(pir)
                program_report = verification.program
            except (KeyError, ValueError, NotImplementedError) as e:
                program_report = chk001("<program>", "program", e)
        errors = sum(len(r.errors()) for r in reports)
        warnings = sum(len(r.warnings()) for r in reports)
        if program_report is not None:
            errors += len(program_report.errors())
            warnings += len(program_report.warnings())
        ok = errors == 0 and not (strict and warnings)
        cert = verification.certificate if verification is not None else None
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
        return {"clauses": [r.summary() for r in reports],
                "program": prog_section,
                "ok": ok, "errors": errors, "warnings": warnings}

    def _do_run(self, req: Dict[str, Any]) -> Dict[str, Any]:
        from ..machine.fused import FusedStrictError
        from ..machine.scheduler import DeadlockError
        from ..runtime import WorkerCrashError

        p = self._parse(req)
        with self._count_lock:
            self.runs_executed += 1
        env0 = self._initial_env(req, p)
        try:
            if p.backend == "mp":
                with self._mp_lock:  # pool protocol is single-threaded
                    return self._execute(req, p, env0)
            return self._execute(req, p, env0)
        except ServiceError:
            raise
        except FusedStrictError as e:
            raise ServiceError(ERR_RUN, f"strict refusal: {e}") from None
        except (WorkerCrashError, DeadlockError) as e:
            raise ServiceError(ERR_RUN, f"{type(e).__name__}: {e}") \
                from None
        except (KeyError, ValueError, NotImplementedError) as e:
            raise ServiceError(ERR_COMPILE,
                               f"{type(e).__name__}: {e}") from None

    def _initial_env(self, req, p: _Parsed) -> Dict[str, np.ndarray]:
        data = req.get("data")
        if data is not None:
            if not isinstance(data, dict):
                raise ServiceError(ERR_BADREQ, "\"data\" must be an object")
            env = {}
            for name, dec in p.decomps.items():
                if name not in data:
                    raise ServiceError(ERR_BADREQ,
                                       f"\"data\" is missing array {name!r}")
                arr = np.asarray(data[name], dtype=np.float64)
                if arr.size != dec.n:
                    raise ServiceError(
                        ERR_BADREQ,
                        f"array {name!r}: got {arr.size} values, "
                        f"decomposition says {dec.n}")
                env[name] = arr
            return env
        # identical to the CLI's deterministic inputs: same seed, same
        # decomposition order => bit-identical arrays
        seed = int(req.get("seed", 0))
        rng = np.random.default_rng(seed)
        return {name: rng.random(dec.n) for name, dec in p.decomps.items()}

    def _execute(self, req, p: _Parsed, env0) -> Dict[str, Any]:
        from ..codegen import compile_clause, run_distributed
        from ..core import copy_env, evaluate_program, matches_reference

        strict = bool(req.get("strict", False))
        processes = req.get("processes")
        timeout = req.get("timeout")
        if bool(req.get("shared", p.is_program)):
            from ..pipeline import (
                compile_program,
                evaluate_program_reference,
                run_program,
            )

            pir = compile_program(p.program, p.decomps, repeat=p.steps,
                                  swap=p.swap)
            ref = evaluate_program_reference(pir, env0)
            machine, barriers = run_program(
                pir, env0, backend=p.backend, strict=strict,
                processes=processes, timeout=timeout)
            names = sorted({c.lhs.name for c in p.clauses}
                           | {n for pr in p.swap for n in pr})
            match = all(matches_reference(machine.env[name], ref[name])
                        for name in names)
            return {
                "mode": "shared",
                "backend": p.backend,
                "arrays": {name: machine.env[name].tolist()
                           for name in names},
                "match_reference": bool(match),
                "barriers": barriers,
                "steps": p.steps,
                "stats": self._machine_stats(machine),
            }
        if p.steps > 1 or p.swap:
            raise ServiceError(ERR_BADREQ,
                               "steps/swap apply to shared program runs")
        ref = evaluate_program(p.program, copy_env(env0))
        env = dict(env0)
        out: Dict[str, Any] = {"mode": "distributed", "backend": p.backend,
                               "clauses": [], "arrays": {}}
        match = True
        stats_total = None
        for clause in p.clauses:
            plan = compile_clause(clause, p.decomps)
            machine = run_distributed(plan, env, backend=p.backend,
                                      strict=strict, processes=processes,
                                      timeout=timeout)
            result = machine.collect(plan.write_name)
            env[plan.write_name] = result
            good = matches_reference(result, ref[plan.write_name])
            match &= good
            s = self._machine_stats(machine)
            stats_total = s if stats_total is None else {
                k: stats_total[k] + s[k] for k in s}
            out["clauses"].append({"name": clause.name, "match": good})
            out["arrays"][plan.write_name] = result.tolist()
        out["match_reference"] = bool(match)
        out["stats"] = stats_total or {}
        return out

    @staticmethod
    def _machine_stats(machine) -> Dict[str, int]:
        s = machine.stats
        return {
            "messages": int(s.total_messages()),
            "elements_moved": int(s.total_elements_moved()),
            "updates": int(s.total_updates()),
            "membership_tests": int(s.total_tests()),
        }
