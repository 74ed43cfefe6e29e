"""The serve stack: wire protocol, async service semantics, single-flight
coalescing, quotas/deadlines, the daemon end-to-end, and clean teardown
(SIGTERM leaves zero ``/dev/shm`` segments and zero child processes).

No pytest-asyncio here: async service tests run under ``asyncio.run``
inside plain test functions.
"""

import asyncio
import glob
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.pipeline import clear_plan_cache
from repro.serve import (
    ERR_BADREQ,
    ERR_INTERNAL,
    ERR_QUOTA,
    ERR_RUN,
    ERR_TIMEOUT,
    ProtocolError,
    ReproService,
    ServeClient,
    ServeError,
    SingleFlight,
    connect,
    request_key,
)
from repro.serve.protocol import decode_line, encode, error_response, ok_response

PROG = ("for i := 1 to 22 par do\n"
        "    A[i] := 2 * (B[i - 1] + B[i + 1]);\n"
        "od;\n")
ARRAYS = ["A=block:24", "B=block:24"]


def compile_req(**extra):
    return {"op": "compile", "program": PROG, "arrays": list(ARRAYS), **extra}


def run_req(seed=0, **extra):
    return {"op": "run", "program": PROG, "arrays": list(ARRAYS),
            "seed": seed, "backend": "fused", **extra}


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_plan_cache()
    yield
    clear_plan_cache()


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_encode_decode_roundtrip(self):
        obj = {"op": "ping", "id": 7}
        line = encode(obj)
        assert line.endswith(b"\n")
        assert decode_line(line[:-1]) == obj

    def test_decode_rejects_bad_json(self):
        with pytest.raises(ProtocolError):
            decode_line(b"{nope")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="object"):
            decode_line(b"[1, 2]")

    def test_response_shapes(self):
        assert ok_response(3, {"x": 1}) == {
            "id": 3, "ok": True, "result": {"x": 1}}
        err = error_response(None, ERR_BADREQ, "nope")
        assert err["ok"] is False
        assert err["error"] == {"code": ERR_BADREQ, "message": "nope"}

    def test_request_key_identity(self):
        assert request_key(compile_req()) == request_key(compile_req())
        assert request_key(compile_req(id=1, tenant="a")) == \
            request_key(compile_req(id=2, tenant="b"))  # id/tenant excluded

    def test_request_key_distinguishes_inputs(self):
        base = request_key(compile_req())
        assert request_key(compile_req(pmax=8)) != base
        assert request_key(compile_req(verify=True)) != base
        assert request_key({**compile_req(), "op": "check"}) != base
        assert request_key({**compile_req(), "program": PROG + " "}) != base

    def test_request_key_params_order_insensitive(self):
        a = request_key(compile_req(params={"n": 24, "p": 4}))
        b = request_key(compile_req(params={"p": 4, "n": 24}))
        assert a == b

    def test_request_key_uncoalescible_is_none(self):
        assert request_key(compile_req(params=[1, 2])) is None
        assert request_key(compile_req(pmax="many")) is None


# ---------------------------------------------------------------------------
# async single-flight primitive
# ---------------------------------------------------------------------------

class TestSingleFlight:
    def test_coalesces_and_counts(self):
        async def main():
            flight = SingleFlight()
            release = asyncio.Event()
            calls = 0

            async def work():
                nonlocal calls
                calls += 1
                await release.wait()
                return "done"

            tasks = [asyncio.ensure_future(flight.do("k", work))
                     for _ in range(8)]
            await asyncio.sleep(0)
            release.set()
            results = await asyncio.gather(*tasks)
            assert results == ["done"] * 8
            assert calls == 1
            assert flight.leaders == 1 and flight.coalesced == 7
            assert flight.inflight() == 0

        asyncio.run(main())

    def test_cancelled_waiter_does_not_cancel_shared_work(self):
        async def main():
            flight = SingleFlight()
            started = asyncio.Event()
            release = asyncio.Event()

            async def work():
                started.set()
                await release.wait()
                return 42

            t1 = asyncio.ensure_future(flight.do("k", work))
            await started.wait()
            t2 = asyncio.ensure_future(flight.do("k", work))
            await asyncio.sleep(0)
            t1.cancel()
            await asyncio.sleep(0)
            assert flight.inflight() == 1  # the shared task survived
            release.set()
            assert await t2 == 42
            with pytest.raises(asyncio.CancelledError):
                await t1

        asyncio.run(main())

    def test_failure_is_not_cached(self):
        async def main():
            flight = SingleFlight()
            attempts = 0

            async def flaky():
                nonlocal attempts
                attempts += 1
                if attempts == 1:
                    raise RuntimeError("boom")
                return "ok"

            with pytest.raises(RuntimeError):
                await flight.do("k", flaky)
            assert flight.inflight() == 0  # popped, not poisoned
            assert await flight.do("k", flaky) == "ok"

        asyncio.run(main())


# ---------------------------------------------------------------------------
# the service (transport-free)
# ---------------------------------------------------------------------------

def make_service(**kw):
    kw.setdefault("workers", 4)
    return ReproService(**kw)


def run_service(coro_fn, **kw):
    """asyncio.run a test body with a fresh service, closing it after."""
    async def main():
        service = make_service(**kw)
        try:
            return await coro_fn(service)
        finally:
            service.close()

    return asyncio.run(main())


def slow_wrapper(service, delay=0.3):
    """Make the service's compile visibly slow (forces request overlap)."""
    orig = service._do_compile

    def slow(req):
        time.sleep(delay)
        return orig(req)

    service._do_compile = slow


class TestService:
    def test_ping(self):
        async def body(service):
            resp = await service.handle({"op": "ping", "id": 9})
            assert resp == {"id": 9, "ok": True, "result": {"pong": True}}

        run_service(body)

    def test_unknown_op(self):
        async def body(service):
            resp = await service.handle({"op": "destroy"})
            assert resp["error"]["code"] == ERR_BADREQ

        run_service(body)

    def test_missing_program(self):
        async def body(service):
            resp = await service.handle({"op": "compile"})
            assert resp["error"]["code"] == ERR_BADREQ
            assert "program" in resp["error"]["message"]

        run_service(body)

    def test_bad_backend(self):
        async def body(service):
            resp = await service.handle(compile_req(backend="gpu"))
            assert resp["error"]["code"] == ERR_BADREQ

        run_service(body)

    def test_bad_array_spec(self):
        async def body(service):
            for arrays in (["A"], ["A=overlapped:16:1"]):
                resp = await service.handle(
                    {"op": "compile", "program": PROG, "arrays": arrays})
                assert resp["error"]["code"] == ERR_BADREQ

        run_service(body)

    def test_compile_cold_then_warm(self):
        async def body(service):
            r1 = await service.handle(compile_req())
            assert r1["ok"], r1
            assert r1["result"]["clauses"][0]["cache_hit"] is False
            r2 = await service.handle(compile_req())
            assert r2["result"]["clauses"][0]["cache_hit"] is True
            assert r1["result"]["clauses"][0]["rules"] == \
                r2["result"]["clauses"][0]["rules"]

        run_service(body)

    def test_single_flight_exactly_one_execution(self):
        """N identical concurrent compiles run the pipeline once and all
        return the identical result."""
        async def body(service):
            slow_wrapper(service)
            responses = await asyncio.gather(
                *[service.handle(compile_req(id=i)) for i in range(8)])
            assert all(r["ok"] for r in responses)
            payloads = {repr(r["result"]) for r in responses}
            assert len(payloads) == 1
            assert service.compiles_executed == 1
            assert service.flight.leaders == 1
            assert service.flight.coalesced == 7
            assert service.flight.inflight() == 0

        run_service(body)

    def test_single_flight_disabled_runs_each(self):
        async def body(service):
            responses = await asyncio.gather(
                *[service.handle(compile_req()) for _ in range(4)])
            assert all(r["ok"] for r in responses)
            assert service.compiles_executed == 4
            assert service.flight.leaders == 0

        run_service(body, single_flight=False)

    def test_failing_compile_not_poisoned(self):
        async def body(service):
            orig = service._do_compile
            state = {"calls": 0}

            def flaky(req):
                state["calls"] += 1
                if state["calls"] == 1:
                    raise RuntimeError("transient failure")
                return orig(req)

            service._do_compile = flaky
            bad = await service.handle(compile_req())
            assert bad["error"]["code"] == ERR_INTERNAL
            good = await service.handle(compile_req())
            assert good["ok"], good
            assert service.flight.inflight() == 0

        run_service(body)

    def test_cancelled_client_keeps_shared_compile_alive(self):
        """A client dropping mid-request must not cancel the in-flight
        compile its peers coalesced onto."""
        async def body(service):
            slow_wrapper(service, delay=0.4)
            t1 = asyncio.ensure_future(service.handle(compile_req(id=1)))
            t2 = asyncio.ensure_future(service.handle(compile_req(id=2)))
            await asyncio.sleep(0.05)  # both attached to one flight
            t1.cancel()
            r2 = await t2
            assert r2["ok"], r2
            assert service.compiles_executed == 1
            with pytest.raises(asyncio.CancelledError):
                await t1

        run_service(body)

    def test_quota_rejects_excess_in_flight(self):
        async def body(service):
            slow_wrapper(service)
            t1 = asyncio.ensure_future(
                service.handle(compile_req(tenant="t1")))
            await asyncio.sleep(0.05)  # t1 is in flight
            r2 = await service.handle(compile_req(tenant="t1", verify=True))
            assert r2["error"]["code"] == ERR_QUOTA
            # a different tenant is not affected by t1's usage
            r3 = await service.handle(compile_req(tenant="t2"))
            assert r3["ok"], r3
            r1 = await t1
            assert r1["ok"], r1
            stats = service.stats()["server"]["tenants"]
            assert stats["t1"]["rejected"] == 1
            assert stats["t2"]["rejected"] == 0

        run_service(body, quota=1)

    def test_timeout_returns_error_but_work_completes(self):
        async def body(service):
            slow_wrapper(service, delay=0.3)
            resp = await service.handle(compile_req(timeout_s=0.05))
            assert resp["error"]["code"] == ERR_TIMEOUT
            # the coalesced work keeps running and lands in the cache
            for _ in range(100):
                if service.flight.inflight() == 0:
                    break
                await asyncio.sleep(0.05)
            assert service.compiles_executed == 1

        run_service(body)

    def test_draining_rejects_new_work(self):
        async def body(service):
            resp = await service.handle({"op": "shutdown"})
            assert resp["result"] == {"draining": True}
            ping = await service.handle({"op": "ping"})
            assert ping["ok"]
            comp = await service.handle(compile_req())
            assert comp["error"]["code"] == ERR_RUN

        run_service(body)

    def test_run_bit_identical_to_in_process(self):
        """The serve ``run`` (seeded inputs) returns exactly the arrays an
        in-process fused execution produces — JSON floats are repr-exact."""
        from repro.cli import parse_decomposition
        from repro.codegen import compile_clause, run_distributed
        from repro.frontend import translate_source

        async def body(service):
            resp = await service.handle(run_req(seed=7))
            assert resp["ok"], resp
            result = resp["result"]
            assert result["match_reference"] is True
            program = translate_source(PROG, {})
            decomps = dict(parse_decomposition(a, 4) for a in ARRAYS)
            rng = np.random.default_rng(7)
            env = {name: rng.random(dec.n)
                   for name, dec in decomps.items()}
            clause = list(program)[0]
            plan = compile_clause(clause, decomps)
            machine = run_distributed(plan, env, backend="fused")
            expected = machine.collect("A")
            assert result["arrays"]["A"] == expected.tolist()

        run_service(body)

    def test_run_with_explicit_data(self):
        async def body(service):
            data = {"A": [0.0] * 24, "B": list(range(24))}
            resp = await service.handle(run_req(data=data))
            assert resp["ok"], resp
            b = np.asarray(data["B"], dtype=np.float64)
            expected = 2 * (b[:-2] + b[2:])
            got = np.asarray(resp["result"]["arrays"]["A"])
            assert np.array_equal(got[1:23], expected)

        run_service(body)

    def test_run_rejects_wrong_length_data(self):
        async def body(service):
            resp = await service.handle(
                run_req(data={"A": [0.0] * 24, "B": [1.0]}))
            assert resp["error"]["code"] == ERR_BADREQ
            assert "decomposition says" in resp["error"]["message"]

        run_service(body)

    def test_stats_shape(self):
        async def body(service):
            await service.handle(compile_req())
            resp = await service.handle({"op": "stats"})
            stats = resp["result"]
            assert set(stats) == {"server", "caches", "runtime"}
            server = stats["server"]
            assert server["requests"]["compile"] == 1
            assert server["singleflight"]["enabled"] is True
            assert "plan" in stats["caches"]
            assert "kernel" in stats["caches"]

        run_service(body)

    def test_clear_op_drops_caches(self):
        async def body(service):
            await service.handle(compile_req())
            assert service.stats()["caches"]["plan"]["size"] >= 1
            resp = await service.handle({"op": "clear"})
            assert resp["result"]["cleared"] is True
            assert resp["result"]["caches"]["plan"]["size"] == 0

        run_service(body)


TWO_CLAUSE = ("for i := 1 to 22 par do\n"
              "    B[i] := A[i - 1] + 3 * A[i] + A[i + 1];\nod;\n"
              "for i := 1 to 22 par do\n"
              "    C[i] := B[i - 1] + 3 * B[i + 1];\nod;\n")


class TestHotCompile:
    """A repeated verified compile is lookups: the parse memo, then one
    program-cache lookup — no lexing, no parsing, no pass."""

    @staticmethod
    def _req(program=TWO_CLAUSE):
        return {"op": "compile", "program": program, "verify": True,
                "arrays": ["A=block:24", "B=block:24", "C=block:24"]}

    def test_hot_request_runs_no_frontend_and_no_pass(self, monkeypatch):
        from repro.cacheinfo import cache_stats, clear_all_caches
        from repro.frontend import lexer, parser
        from repro.pipeline import PassManager

        def boom(*args, **kwargs):
            raise AssertionError("a hot compile lexed or ran a pass")

        async def body(service):
            clear_all_caches()
            cold = await service.handle(self._req())
            assert cold["ok"], cold
            assert not any(c["cache_hit"] for c in cold["result"]["clauses"])
            warm = await service.handle(self._req())
            monkeypatch.setattr(lexer, "tokenize", boom)
            monkeypatch.setattr(parser, "tokenize", boom)
            monkeypatch.setattr(PassManager, "run", boom)
            before = cache_stats()
            hot = await service.handle(self._req())
            after = cache_stats()
            assert hot == warm
            assert all(c["cache_hit"] for c in hot["result"]["clauses"])
            assert all(c["diagnostics"]["ok"]
                       for c in hot["result"]["clauses"])
            assert hot["result"]["program"]["cache_hit"] is True

            def moved(cache, kind):
                return after[cache][kind] - before[cache][kind]

            assert (moved("parse", "hits"), moved("parse", "misses")) \
                == (1, 0)
            assert (moved("program", "hits"), moved("program", "misses")) \
                == (1, 0)
            assert (moved("plan", "hits"), moved("plan", "misses")) == (0, 0)
            monkeypatch.undo()
            fresh = await service.handle(
                self._req(TWO_CLAUSE.replace("3 *", "5 *")))
            assert fresh["ok"], fresh
            assert fresh["result"]["clauses"][0]["cache_hit"] is False

        run_service(body, single_flight=False)

    def test_unverified_entry_is_verified_on_a_verified_request(self):
        async def body(service):
            plain = await service.handle({**self._req(), "verify": False})
            assert "diagnostics" not in plain["result"]["clauses"][0]
            hot = await service.handle(self._req())
            assert hot["result"]["program"]["cache_hit"] is True
            assert [c["diagnostics"]["ok"]
                    for c in hot["result"]["clauses"]] == [True, True]

        run_service(body)


# ---------------------------------------------------------------------------
# the daemon, end to end
# ---------------------------------------------------------------------------

def shm_entries():
    return set(glob.glob("/dev/shm/repro-*")) if os.path.isdir(
        "/dev/shm") else set()


def start_daemon(tmp_path, *extra):
    sock = str(tmp_path / "repro.sock")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--unix", sock, *extra],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    assert "listening on" in line, (line, proc.stderr.read())
    return proc, sock


def stop_daemon(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait(timeout=10)
    proc.stdout.close()
    proc.stderr.close()


@pytest.mark.slow
class TestServeDaemon:
    def test_mixed_concurrent_load_bit_identical(self, tmp_path):
        """64 concurrent mixed compile/run clients against one daemon:
        every run's arrays are bit-identical to in-process fused
        execution, and shutdown leaks nothing."""
        from repro.cli import parse_decomposition
        from repro.codegen import compile_clause, run_distributed
        from repro.frontend import translate_source

        shm_before = shm_entries()
        proc, sock = start_daemon(tmp_path)
        try:
            results = {}
            errors = []
            lock = threading.Lock()

            def client_worker(i):
                try:
                    with ServeClient(sock) as c:
                        if i % 2 == 0:
                            r = c.call("compile", program=PROG,
                                       arrays=ARRAYS)
                        else:
                            r = c.call("run", program=PROG, arrays=ARRAYS,
                                       seed=i % 4, backend="fused")
                        with lock:
                            results[i] = r
                except Exception as e:  # noqa: BLE001 — collected
                    with lock:
                        errors.append((i, e))

            threads = [threading.Thread(target=client_worker, args=(i,))
                       for i in range(64)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert errors == []
            assert len(results) == 64

            # expected arrays, computed in-process per seed
            program = translate_source(PROG, {})
            decomps = dict(parse_decomposition(a, 4) for a in ARRAYS)
            clause = list(program)[0]
            plan = compile_clause(clause, decomps)
            expected = {}
            for seed in range(4):
                rng = np.random.default_rng(seed)
                env = {name: rng.random(dec.n)
                       for name, dec in decomps.items()}
                expected[seed] = run_distributed(
                    plan, env, backend="fused").collect("A").tolist()
            for i, r in results.items():
                if i % 2 == 0:
                    assert r["clauses"][0]["rules"]
                else:
                    assert r["match_reference"] is True
                    assert r["arrays"]["A"] == expected[i % 4]

            with ServeClient(sock) as c:
                stats = c.call("stats")["server"]
                assert stats["requests"]["compile"] == 32
                assert stats["requests"]["run"] == 32
                assert stats["errors"] == {}
                # the pipeline ran far fewer times than requests arrived:
                # single-flight + warm structural caches did the rest
                assert stats["compiles_executed"] <= 32
                c.call("shutdown")

            assert proc.wait(timeout=30) == 0
            out = proc.stdout.read()
            assert "drained and stopped" in out
            assert shm_entries() <= shm_before
        finally:
            stop_daemon(proc)

    def test_run_mp_backend_through_daemon_no_leaks(self, tmp_path):
        """An mp-backend run spawns worker children inside the daemon;
        shutdown must reap them and their shared-memory segments."""
        shm_before = shm_entries()
        proc, sock = start_daemon(tmp_path)
        try:
            with ServeClient(sock, timeout=120) as c:
                r = c.call("run", program=PROG, arrays=ARRAYS, seed=1,
                           backend="mp", processes=2)
                assert r["match_reference"] is True
                runtime = c.call("stats")["runtime"]
                assert runtime, "expected a live worker pool"
                c.call("shutdown")
            assert proc.wait(timeout=30) == 0
            assert shm_entries() <= shm_before
        finally:
            stop_daemon(proc)

    def test_sigterm_drains_gracefully(self, tmp_path):
        shm_before = shm_entries()
        proc, sock = start_daemon(tmp_path)
        try:
            with ServeClient(sock) as c:
                assert c.call("ping") == {"pong": True}
                # warm the runtime so there is something to tear down
                c.call("run", program=PROG, arrays=ARRAYS, seed=0,
                       backend="mp", processes=2)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            assert "drained and stopped" in proc.stdout.read()
            assert shm_entries() <= shm_before
        finally:
            stop_daemon(proc)

    def test_no_single_flight_flag(self, tmp_path):
        proc, sock = start_daemon(tmp_path, "--no-single-flight")
        try:
            with ServeClient(sock) as c:
                stats = c.call("stats")["server"]
                assert stats["singleflight"]["enabled"] is False
                c.call("shutdown")
            assert proc.wait(timeout=30) == 0
        finally:
            stop_daemon(proc)

    def test_client_connect_retry_helper(self, tmp_path):
        proc, sock = start_daemon(tmp_path)
        try:
            c = connect(sock, retries=10, delay=0.05)
            try:
                assert c.call("ping") == {"pong": True}
                with pytest.raises(ServeError) as ei:
                    c.call("compile", program="")
                assert ei.value.code == ERR_BADREQ
                c.call("shutdown")
            finally:
                c.close()
            assert proc.wait(timeout=30) == 0
        finally:
            stop_daemon(proc)


# ---------------------------------------------------------------------------
# runtime SIGTERM teardown (the pool-level guarantee under the daemon)
# ---------------------------------------------------------------------------

_POOL_SIGTERM_SCRIPT = r"""
import os, sys, time
import numpy as np
from repro.runtime.pool import get_pool
from repro.runtime.shm import ShmSession

pool = get_pool(2)            # installs the SIGTERM handler
sess = ShmSession({"X": np.zeros(64)})
print("PIDS", " ".join(str(p) for p in pool.pids()), flush=True)
print("SEGS", " ".join(seg.name for seg in sess.segs.values()), flush=True)
print("READY", flush=True)
time.sleep(60)
"""


@pytest.mark.slow
class TestPoolSigterm:
    def test_sigterm_reaps_workers_and_segments(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"),
             env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
        proc = subprocess.Popen(
            [sys.executable, "-c", _POOL_SIGTERM_SCRIPT], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        pids, segs = [], []
        try:
            for _ in range(3):
                line = proc.stdout.readline().split()
                if not line:
                    break
                if line[0] == "PIDS":
                    pids = [int(p) for p in line[1:]]
                elif line[0] == "SEGS":
                    segs = line[1:]
                elif line[0] == "READY":
                    break
            assert pids and segs, proc.stderr.read()
            if os.path.isdir("/dev/shm"):
                for name in segs:
                    assert os.path.exists(f"/dev/shm/{name}")
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
            # handler re-raises with the default action: killed by TERM
            assert proc.returncode == -signal.SIGTERM
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and any(
                    _pid_alive(p) for p in pids):
                time.sleep(0.1)
            assert not any(_pid_alive(p) for p in pids)
            if os.path.isdir("/dev/shm"):
                for name in segs:
                    assert not os.path.exists(f"/dev/shm/{name}")
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)
            proc.stdout.close()
            proc.stderr.close()

    def test_install_returns_false_off_main_thread(self, monkeypatch):
        from repro.runtime import pool

        # earlier tests may have installed on the main thread already;
        # force the attempt so the off-main-thread refusal is exercised
        monkeypatch.setattr(pool, "_SIGNALS_INSTALLED", False)
        out = []
        t = threading.Thread(
            target=lambda: out.append(pool.install_signal_handlers()))
        t.start()
        t.join()
        assert out == [False]


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    return True
