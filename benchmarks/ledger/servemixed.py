"""``serve-mixed``: a ``repro serve`` daemon under two closed-loop
client connections.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from statistics import median
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.analysis import verify_program
from repro.cli import parse_decomposition
from repro.core import copy_env, evaluate_program
from repro.frontend import translate_source
from repro.pipeline import compile_plan, compile_program
from repro.serve import ServeClient, connect

from . import yardstick
from .spans import NULL, Recorder
from .stats import median_seconds, tail
from .workload import (
    OP_TIMEOUT_S,
    OUT_DIR,
    PMAX,
    PROCESSES,
    CompileInfo,
    Config,
    Window,
    Workload,
    child_env,
)

__all__ = ["ServeMixed"]

# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------

RUN_PROGRAM = ("for i := 1 to 22 par do\n"
               "    A[i] := 2 * (B[i - 1] + B[i + 1]);\nod;\n")
RUN_ARRAYS = ["A=block:24", "B=block:24"]


def two_clause_source(k: int) -> str:
    return ("for i := 1 to n - 2 par do\n"
            f"    B[i] := A[i - 1] + {k} * A[i] + A[i + 1];\nod;\n"
            "for i := 1 to n - 2 par do\n"
            f"    C[i] := B[i - 1] + {k} * B[i + 1];\nod;\n")


@dataclass
class Request:
    kind: str                      # "hit" | "miss" | "run"
    op: str                        # the protocol op
    body: Dict[str, object]
    want: object = None            # rules (compile) or array (run)
    start: float = 0.0
    end: float = 0.0
    response: Optional[dict] = None
    error: Optional[str] = None


class ServeMixed(Workload):
    name = "serve-mixed"
    work_unit = "requests"
    HOT = 8
    INPUTS = 16
    #: seconds of traffic between two yardstick passes
    SLICE_S = 1.0

    def __init__(self, cfg: Config):
        super().__init__(cfg)
        self.daemon: Optional[subprocess.Popen] = None
        self.clients: List[ServeClient] = []

    def set_up(self) -> None:
        self.n = self.cfg.size(2048)
        self.arrays = [f"{x}=block:{self.n}" for x in "ABC"]
        first = int(self.rng.integers(2, 50))
        self.hot = [two_clause_source(first + k) for k in range(self.HOT)]
        self.miss_base = first + self.HOT
        self.units_per_op = 1
        self._make_run_inputs()
        self.compile_set(NULL)      # the known rules of the hot set
        t0 = time.perf_counter()
        self._start_daemon()
        self.daemon_start_s = time.perf_counter() - t0
        self.clients = [connect(self.sock, timeout=OP_TIMEOUT_S)
                        for _ in range(PROCESSES)]
        # one stream per connection for the life of the run, so a
        # never-seen coefficient is never seen twice
        self.streams = [self.stream(c) for c in range(PROCESSES)]
        for k in range(self.HOT):
            self.clients[0].call("compile", **self._compile_body(self.hot[k]))
        self.log: List[Request] = []
        self.server_before = self.server_after = self.server_stats()

    def _make_run_inputs(self) -> None:
        program = translate_source(RUN_PROGRAM, {})
        self.run_inputs = []
        for _ in range(self.INPUTS):
            data = {"A": self.rng.random(24), "B": self.rng.random(24)}
            t0 = time.perf_counter()
            want = evaluate_program(program, copy_env(data))["A"]
            self.evaluator_s += time.perf_counter() - t0
            self.run_inputs.append(
                ({k: v.tolist() for k, v in data.items()}, want))

    def _start_daemon(self) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        # a relative path keeps the socket name under the 108-byte limit
        # wherever the checkout lives
        stem = os.path.relpath(OUT_DIR / f"serve-{os.getpid()}")
        self.sock, self.daemon_log = stem + ".sock", stem + ".log"
        with open(self.daemon_log, "w") as log:
            self.daemon = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--unix",
                 self.sock],
                env=child_env(), stdout=subprocess.PIPE, stderr=log,
                text=True)
        line = self.daemon.stdout.readline()
        if "listening on" not in line:
            self.daemon.kill()
            self.daemon.wait()
            raise RuntimeError(
                f"repro serve did not start, see {self.daemon_log}")

    def _compile_body(self, source: str) -> Dict[str, object]:
        return {"program": source, "arrays": self.arrays,
                "params": {"n": self.n}, "pmax": PMAX, "verify": True}

    def compile_set(self, rec: Recorder, tag: str = "miss") -> CompileInfo:
        """The hot set compiled in this process, the way the daemon's
        ``compile`` op does it."""
        info = CompileInfo()
        self.hot_rules = []
        for source in self.hot:
            with rec.span(f"frontend.translate.{tag}", "frontend"):
                program = translate_source(source, {"n": self.n})
                decomps = dict(parse_decomposition(a, PMAX)
                               for a in self.arrays)
            clauses = list(program)
            successors = clauses[1:] + [None]
            with rec.span(f"pipeline.compile.{tag}", "pipeline"):
                for clause, successor in zip(clauses, successors):
                    compile_plan(clause, decomps, successor=successor)
                pir = compile_program(program, decomps)
            # the verdicts ride on the same cache entries, so asking for
            # them separately costs one more lookup and shows their price
            rules = []
            with rec.span(f"analysis.verify.{tag}", "analysis"):
                for clause, successor in zip(clauses, successors):
                    ir = compile_plan(clause, decomps, successor=successor,
                                      verify=True)
                    info.add_plan(ir, ir.diagnostics)
                    rules.append(ir.rules())
                verify_program(pir)
            info.traces.append(pir.trace)
            self.hot_rules.append(rules)
        self.info = info
        return info

    def server_stats(self) -> dict:
        with ServeClient(self.sock, timeout=OP_TIMEOUT_S) as c:
            return c.call("stats")

    def stream(self, conn: int) -> Iterator[Request]:
        """Connection *conn*'s seeded request stream: every block of ten
        holds seven hot compiles, one never-seen coefficient and two
        runs, in seeded order."""
        rng = np.random.default_rng([self.cfg.seed, conn])
        kinds = ["hit"] * 7 + ["miss"] + ["run"] * 2
        fresh = self.miss_base + conn
        while True:
            for kind in rng.permutation(kinds):
                if kind == "hit":
                    k = int(rng.integers(self.HOT))
                    yield Request("hit", "compile",
                                  self._compile_body(self.hot[k]),
                                  self.hot_rules[k])
                elif kind == "miss":
                    yield Request("miss", "compile", self._compile_body(
                        two_clause_source(fresh)))
                    fresh += PROCESSES
                else:
                    data, want = self.run_inputs[
                        int(rng.integers(self.INPUTS))]
                    yield Request("run", "run", {
                        "program": RUN_PROGRAM, "arrays": RUN_ARRAYS,
                        "pmax": PMAX, "backend": "fused", "data": data},
                        want)

    def _send(self, conn: int) -> Request:
        req = next(self.streams[conn])
        req.start = time.perf_counter()
        try:
            req.response = self.clients[conn].request(
                {"op": req.op, **req.body})
        except (OSError, ValueError, RuntimeError) as e:
            req.error = f"{type(e).__name__}: {e}"
        req.end = time.perf_counter()
        return req

    def _client_loop(self, conn: int, deadline: float,
                     log: List[Request]) -> None:
        while True:
            req = self._send(conn)
            log.append(req)
            # a dead connection ends its loop instead of spinning
            if req.end >= deadline or req.error:
                return

    def _slice(self, seconds: float) -> List[Request]:
        """One request in flight per connection for *seconds*; the
        requests in the order they ended."""
        logs: List[List[Request]] = [[] for _ in self.clients]
        deadline = time.perf_counter() + seconds
        threads = [
            threading.Thread(target=self._client_loop,
                             args=(c, deadline, logs[c]))
            for c in range(len(self.clients))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return sorted((r for log in logs for r in log), key=lambda r: r.end)

    def window(self, seconds: float, rec: Recorder = NULL) -> Window:
        """Closed loop with one request in flight per connection, in
        slices of :attr:`SLICE_S` with a yardstick pass between them
        while both connections are idle."""
        self.begin_window()
        self.server_before = self.server_stats()
        self.log = []
        win = Window()
        deadline = time.perf_counter() + seconds
        yard = yardstick.measure()
        while True:
            t_start = time.perf_counter()
            log = self._slice(min(self.SLICE_S, deadline - t_start))
            yard, before = yardstick.measure(), yard
            slow = yardstick.slowdown(before, yard)
            win.nominal_wall_s += (log[-1].end - t_start) / slow
            for req in log:
                op = win.attempted
                win.durations.append(req.end - req.start)
                win.slowdowns.append(slow)
                # spans are made from the clients' own log after the
                # fact, so every request is traced and tracing costs
                # nothing
                win.traced.append(rec.enabled)
                why = self.check(req)
                if why is not None:
                    win.failures.append(why)
                if rec.enabled:
                    root = rec.add("op", "bench", req.start, req.end, op)
                    rec.add(f"serve.{req.kind}", "serve", req.start,
                            req.end, op, parent=root)
            self.log += log
            if time.perf_counter() >= deadline or any(r.error for r in log):
                break
        self.server_after = self.server_stats()
        return win

    def op(self, rec: Recorder):
        """One request on the first connection (warm-up)."""
        return self._send(0)

    def check(self, req: Request) -> Optional[str]:
        if req.error:
            return req.error
        if not req.response.get("ok"):
            return f"{req.kind}: {req.response.get('error')}"
        result = req.response["result"]
        if req.kind == "run":
            if not np.array_equal(np.array(result["arrays"]["A"]), req.want):
                return "run: arrays differ from the evaluator"
            self.counts.update(
                {k: result["stats"][k] for k in
                 ("messages", "elements_moved", "updates",
                  "membership_tests")})
            return None
        clauses = result["clauses"]
        if len(clauses) != 2 or not all(c.get("fused") for c in clauses):
            return f"{req.kind}: not two kernel-lowered clauses"
        if any(not c["diagnostics"]["ok"] for c in clauses):
            return f"{req.kind}: a clean program was flagged"
        if req.kind == "miss":
            # (compiling a clause also compiles its successor, so only
            # the first clause of a new program is a miss)
            if clauses[0]["cache_hit"]:
                return "miss: a never-seen program came from the cache"
        elif [c["rules"] for c in clauses] != req.want:
            return "hit: rules differ from the in-process compile"
        else:
            self.counts["hot_requests"] += 1
            self.counts["hot_cache_hits"] += all(
                c["cache_hit"] for c in clauses)
        return None

    def reference_op(self) -> None:
        data = {k: np.array(v) for k, v in self.run_inputs[0][0].items()}
        evaluate_program(translate_source(RUN_PROGRAM, {}), data)

    def layer_metrics(self, mixed: Window,
                      probes: Dict[str, float]) -> Dict[str, float]:
        ping_s = median_seconds(lambda: self.clients[0].call("ping"), 50)
        by_kind: Dict[str, List[float]] = {"hit": [], "miss": [], "run": []}
        for req in self.log:
            by_kind[req.kind].append(req.end - req.start)
        op, busy, n = median(mixed.durations), sum(mixed.durations), \
            mixed.attempted
        out = {"serve.ping_over_op": ping_s / op,
               "serve.tail_over_op": tail(mixed.durations)[0] / op}
        for kind, lat in by_kind.items():
            out[f"serve.{kind}_over_op"] = median(lat) / op if lat else 0.0
            out[f"serve.{kind}_time_share"] = sum(lat) / busy
        before, after = self.server_before, self.server_after
        s0, s1 = before["server"], after["server"]
        out.update({
            "serve.compiles_executed":
                (s1["compiles_executed"] - s0["compiles_executed"]) / n,
            "serve.coalesced": (s1["singleflight"]["coalesced"]
                                - s0["singleflight"]["coalesced"]) / n,
            "serve.errors": sum(s1["errors"].values())
                - sum(s0["errors"].values()),
            "serve.cache_hit_ratio": self.counts["hot_cache_hits"]
                / max(1, self.counts["hot_requests"]),
            "serve.daemon_start_share":
                self.daemon_start_s / probes["setup_s"],
        })
        # the caches that matter here are the daemon's, not this process's
        c0, c1 = before["caches"], after["caches"]
        for cache in ("plan", "kernel", "program"):
            for kind in ("hits", "misses"):
                out[f"pipeline.cache.{cache}_{kind}"] = (
                    c1[cache][kind] - c0[cache][kind]) / n
        out["pipeline.cache.kernel_bytes"] = c1["kernel"]["bytes"]
        for kind in ("hits", "misses"):
            out[f"sets.table1_{kind}"] = (
                c1["table1"][kind] - c0["table1"][kind]) / n
        return out

    def tear_down(self) -> None:
        for client in self.clients:
            client.close()
        if self.daemon is not None:
            try:
                with ServeClient(self.sock, timeout=10.0) as c:
                    c.call("shutdown")
                self.daemon.wait(timeout=30)
            except (OSError, RuntimeError, subprocess.TimeoutExpired):
                self.daemon.kill()
                self.daemon.wait()
            self.daemon.stdout.close()
            for path in (self.sock, self.daemon_log):
                if os.path.exists(path):
                    os.unlink(path)
        super().tear_down()
