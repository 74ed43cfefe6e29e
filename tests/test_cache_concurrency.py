"""Thread-safety of the structural caches under concurrent misses.

The plan/kernel/table1 caches were always lock-protected for *storage*;
what these tests pin down is the stronger single-flight property: N
threads hammering one structural key execute the pass pipeline exactly
once, a failing leader never poisons the cache, and byte-accounted
eviction keeps the kernel cache inside its budget.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import AffineF, Bounds, Clause, IdentityF, IndexSet, Ref, SeparableMap
from repro.decomp import Block
from repro.pipeline import (
    clear_plan_cache,
    compile_flight,
    compile_plan,
    enable_plan_cache,
    kernel_cache,
    kernel_cache_info,
)
from repro.pipeline.manager import PassManager

N, P = 24, 4
THREADS = 16


def stencil_clause(shift=1):
    return Clause(
        IndexSet(Bounds((1,), (N - 2,))),
        Ref("A", SeparableMap([IdentityF()])),
        (Ref("B", SeparableMap([AffineF(1, -shift)]))
         + Ref("B", SeparableMap([AffineF(1, shift)]))) * 0.5,
    )


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_plan_cache()
    yield
    clear_plan_cache()
    enable_plan_cache(True)


def hammer(fn, n=THREADS):
    """Run *fn* on n threads released together; collect results/errors."""
    barrier = threading.Barrier(n)
    results, errors = [], []
    lock = threading.Lock()

    def worker():
        barrier.wait()
        try:
            r = fn()
        except Exception as e:  # noqa: BLE001 — recorded for assertions
            with lock:
                errors.append(e)
        else:
            with lock:
                results.append(r)

    threads = [threading.Thread(target=worker) for _ in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    return results, errors


class CountingRuns:
    """Wrap ``PassManager.run`` to count (and optionally fail) pipeline
    executions."""

    def __init__(self, monkeypatch, fail_first=False):
        self.calls = 0
        self.lock = threading.Lock()
        self.fail_first = fail_first
        original = PassManager.run

        def counted(mgr, ir):
            with self.lock:
                self.calls += 1
                mine = self.calls
            if self.fail_first and mine == 1:
                raise RuntimeError("injected first-compile failure")
            return original(mgr, ir)

        monkeypatch.setattr(PassManager, "run", counted)


class TestSingleFlightCompile:
    def test_sixteen_threads_one_pipeline_execution(self, monkeypatch):
        counter = CountingRuns(monkeypatch)
        decomps = {"A": Block(N, P), "B": Block(N, P)}
        before = compile_flight.info()

        results, errors = hammer(
            lambda: compile_plan(stencil_clause(), decomps))

        assert errors == []
        assert len(results) == THREADS
        assert counter.calls == 1  # the whole point
        hits = [ir for ir in results if ir.trace.cache_hit]
        assert len(hits) == THREADS - 1
        # every thread sees the one compiled kernel object
        kernels = {id(ir.kernels) for ir in results}
        assert len(kernels) == 1 and results[0].kernels is not None
        after = compile_flight.info()
        assert after["leaders"] == before["leaders"] + 1
        assert after["inflight"] == 0  # leadership always released

    def test_results_identical_across_threads(self):
        decomps = {"A": Block(N, P), "B": Block(N, P)}
        results, errors = hammer(
            lambda: compile_plan(stencil_clause(), decomps))
        assert errors == []
        rules = {tuple(ir.rules()) for ir in results}
        assert len(rules) == 1

    def test_failing_leader_does_not_poison(self, monkeypatch):
        counter = CountingRuns(monkeypatch, fail_first=True)
        decomps = {"A": Block(N, P), "B": Block(N, P)}

        results, errors = hammer(
            lambda: compile_plan(stencil_clause(), decomps))

        # exactly one thread (the first leader) observed the failure;
        # one waiter took over and compiled, the rest got cache hits
        assert len(errors) == 1
        assert "injected" in str(errors[0])
        assert len(results) == THREADS - 1
        assert counter.calls == 2
        assert compile_flight.info()["inflight"] == 0
        # the cache holds the good entry, not the failure
        ir = compile_plan(stencil_clause(), decomps)
        assert ir.trace.cache_hit

    def test_disabled_cache_compiles_independently(self, monkeypatch):
        counter = CountingRuns(monkeypatch)
        enable_plan_cache(False)
        decomps = {"A": Block(N, P), "B": Block(N, P)}
        results, errors = hammer(
            lambda: compile_plan(stencil_clause(), decomps), n=4)
        assert errors == []
        assert counter.calls == 4  # no coalescing without a key

    def test_distinct_keys_do_not_serialize(self, monkeypatch):
        counter = CountingRuns(monkeypatch)
        decomps = {"A": Block(N, P), "B": Block(N, P)}
        shifts = list(range(1, 9)) * 2  # 8 distinct keys, 16 threads
        idx = iter(range(len(shifts)))
        lock = threading.Lock()

        def compile_one():
            with lock:
                shift = shifts[next(idx)]
            return compile_plan(stencil_clause(shift), decomps)

        results, errors = hammer(compile_one)
        assert errors == []
        assert len(results) == THREADS
        assert counter.calls == 8  # one pipeline execution per key


class TestKernelSourceThreads:
    def test_concurrent_kernel_compiles_convert_asts_one_at_a_time(self):
        """Threads parsing and compiling distinct kernel sources at once
        (the serve executor, the threaded MPI stub) all succeed.  The
        cyclic garbage with a finalizer that yields makes a collection
        during an AST conversion switch threads mid-conversion, which
        CPython 3.11 answers with ``SystemError`` ("AST constructor
        recursion depth mismatch") unless conversions are serialized."""
        import gc

        from repro.pipeline.kernels import compile_kernel

        class Yields:
            def __del__(self):
                time.sleep(0)

        counter = iter(range(10**6))
        lock = threading.Lock()

        def compile_many():
            for _ in range(100):
                for _ in range(20):
                    y = Yields()
                    y.cycle = y
                with lock:
                    k = next(counter)
                compile_kernel(
                    "def _rhs(_i, _r, _s):\n"
                    f"    _np.multiply({k}, _r[1], out=_s[0])\n"
                    "    _np.add(_r[0], _s[0], out=_s[0])\n"
                    "    return _s[0]\n")

        thresholds = gc.get_threshold()
        gc.set_threshold(50, 1, 1)
        try:
            results, errors = hammer(compile_many, n=8)
        finally:
            gc.set_threshold(*thresholds)
        assert errors == []
        assert len(results) == 8


class TestKernelCacheBytes:
    def test_bytes_accounted(self):
        assert kernel_cache_info()["bytes"] == 0
        compile_plan(stencil_clause(), {"A": Block(N, P), "B": Block(N, P)})
        info = kernel_cache_info()
        assert info["size"] == 1
        assert 0 < info["bytes"] <= info["max_bytes"]

    def test_byte_budget_evicts_lru(self, monkeypatch):
        monkeypatch.setattr(kernel_cache, "max_bytes", 1)
        decomps = {"A": Block(N, P), "B": Block(N, P)}
        compile_plan(stencil_clause(1), decomps)
        compile_plan(stencil_clause(2), decomps)
        info = kernel_cache_info()
        # over budget: evicts down to the single most recent entry
        assert info["size"] == 1
        assert info["evictions"] >= 1

    def test_clear_resets_bytes(self):
        compile_plan(stencil_clause(), {"A": Block(N, P), "B": Block(N, P)})
        assert kernel_cache_info()["bytes"] > 0
        clear_plan_cache()
        assert kernel_cache_info()["bytes"] == 0


class TestSingleFlightFlavorBuild:
    def test_first_runs_build_each_flavor_once(self, monkeypatch):
        """Threads sharing one cached entry: concurrent first runs of a
        plan build each flavor exactly once and charge its bytes to the
        kernel cache exactly once."""
        from repro.codegen import compile_clause, run_distributed, run_shared
        from repro.core import copy_env, evaluate_clause
        from repro.pipeline import kernels

        calls, lock, real = [], threading.Lock(), kernels._build_nodes

        def build(ir, local, dist, used, union=False):
            with lock:
                calls.append((local, dist, union))
            time.sleep(0.02)  # widen the window a second build would hit
            return real(ir, local, dist, used, union=union)

        monkeypatch.setattr(kernels, "_build_nodes", build)
        decomps = {"A": Block(N, P), "B": Block(N, P)}
        plan = compile_clause(stencil_clause(), decomps)
        before = kernel_cache_info()["bytes"]
        env0 = {k: np.random.default_rng(5).random(N) for k in "AB"}
        want = evaluate_clause(stencil_clause(), copy_env(env0))["A"]

        def first_runs():
            mine = compile_clause(stencil_clause(), decomps)
            dist = run_distributed(mine, copy_env(env0), backend="fused")
            shared = run_shared(mine, copy_env(env0), backend="fused")
            return dist.collect("A"), shared.env["A"]

        results, errors = hammer(first_runs, n=8)
        assert errors == [] and len(results) == 8
        assert all(np.array_equal(a, want) for r in results for a in r)
        assert sorted(calls) == [(False, False, True), (True, True, False)]
        built = plan.kernels.built()
        assert set(built) == {"union", "dist"}
        assert kernel_cache_info()["bytes"] == before + sum(
            kernels._approx_nbytes(nodes) for nodes in built.values())


class TestTable1Concurrency:
    def test_concurrent_memo_is_consistent(self):
        from repro.sets.table1 import (
            clear_table1_cache,
            optimize_access,
            table1_cache_info,
        )

        clear_table1_cache()
        dec = Block(N, P)
        f = AffineF(1, -1)

        results, errors = hammer(lambda: optimize_access(dec, f, 1, N - 2))
        assert errors == []
        names = {r.rule for r in results}
        assert len(names) == 1  # every thread saw the same memoized rule
        assert table1_cache_info()["size"] >= 1


class TestConcurrentExecution:
    def test_compile_and_run_race_is_correct(self):
        """Threads compiling + running the same clause concurrently all
        produce the reference answer (shared caches, shared kernels)."""
        from repro.codegen import compile_clause, run_distributed
        from repro.core import copy_env, evaluate_clause

        decomps = {"A": Block(N, P), "B": Block(N, P)}
        rng = np.random.default_rng(3)
        env0 = {k: rng.random(N) for k in "AB"}
        ref = evaluate_clause(stencil_clause(), copy_env(env0))["A"]

        def compile_and_run():
            plan = compile_clause(stencil_clause(), decomps)
            m = run_distributed(plan, copy_env(env0), backend="fused")
            return m.collect("A")

        results, errors = hammer(compile_and_run, n=8)
        assert errors == []
        for got in results:
            assert np.array_equal(got, ref)
