"""The one dispatcher (:mod:`repro.backends`): 4 entry points x 4
backends x forced conditions.

Every case asserts three things: the tier that actually ran (runners are
spied on, not inferred), exactly one trace note per fallback hop with
its exact text, and bit-identity to ``evaluate_clause``.  The nd entry
points had no fallback coverage before this matrix.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import backends
from repro.codegen import compile_clause, run_distributed, run_shared
from repro.codegen.nddist import compile_clause_nd_dist, run_distributed_nd
from repro.codegen.ndplan import compile_clause_nd, run_shared_nd
from repro.core import (
    SEQ,
    AffineF,
    Bounds,
    Clause,
    IdentityF,
    IndexSet,
    Ref,
    SeparableMap,
    copy_env,
    evaluate_clause,
)
from repro.core.view import ProjectedMap
from repro.decomp import Block, GridDecomposition, Replicated
from repro.machine import DeadlockError, DistributedMachine
from repro.machine.fused import FusedStrictError
from repro.mpi import reset_mpi_support
from repro.pipeline import clear_plan_cache
from repro.pipeline.kernels import flavor_nodes
from repro.runtime import shutdown_runtime

N, P = 16, 4
BACKENDS = ("scalar", "fused", "mp", "mpi")
ENTRIES = ("shared", "shared_nd", "dist", "dist_nd")

SERIAL = "sequential (•) clause is a serial chain"
BROADCAST = "replicated write (per-copy broadcast)"
NO_KERNELS = "plan carries no fused kernels (lower-kernels fallback)"


def fell(tier, target, why, what="path"):
    return f"backend={tier!r} fell back to the {target} {what}: {why}"


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def ref1(name, c=0):
    return Ref(name, SeparableMap([AffineF(1, c) if c else IdentityF()]))


def ref2(name, di=0):
    return Ref(name, SeparableMap(
        [AffineF(1, di) if di else IdentityF(), IdentityF()]))


def clause_for(entry, seq=False):
    kw = {"ordering": SEQ} if seq else {}
    if entry.endswith("_nd"):
        return Clause(IndexSet(Bounds((1, 0), (N - 2, N - 1))), ref2("T"),
                      (ref2("S", -1) + ref2("S", 1)) * 0.5, **kw)
    return Clause(IndexSet(Bounds((1,), (N - 2,))), ref1("A"),
                  (ref1("B", -1) + ref1("B", 1)) * 0.5, **kw)


def env_for(entry, seed=0):
    rng = np.random.default_rng(seed)
    if entry.endswith("_nd"):
        return {"S": rng.random((N, N)), "T": rng.random((N, N))}
    return {"A": rng.random(N), "B": rng.random(N)}


def decomps_for(entry, replicated=False):
    if entry.endswith("_nd"):
        g = GridDecomposition([Block(N, 2), Block(N, 2)])
        return {"S": g, "T": g}
    return {"A": Replicated(N, P) if replicated else Block(N, P),
            "B": Block(N, P)}


COMPILE = {"shared": compile_clause, "dist": compile_clause,
           "shared_nd": compile_clause_nd, "dist_nd": compile_clause_nd_dist}
RUN = {"shared": run_shared, "dist": run_distributed,
       "shared_nd": run_shared_nd, "dist_nd": run_distributed_nd}


def run_case(entry, backend, *, seq=False, replicated=False,
             preplaced=False, no_form=False, **kw):
    """Compile fresh, run, return ``(plan, result array, reference)``."""
    clause = clause_for(entry, seq)
    decomps = decomps_for(entry, replicated)
    plan = COMPILE[entry](clause, decomps)
    if no_form:
        plan.ir.kernels = None  # the lower-kernels pass found no form
    env0 = env_for(entry)
    write = clause.lhs.name
    ref = evaluate_clause(clause, copy_env(env0))[write]
    if entry.startswith("dist"):
        if preplaced:
            kw["machine"] = DistributedMachine(plan.pmax)
            for name, dec in decomps.items():
                kw["machine"].place(name, env0[name], dec)
        m = RUN[entry](plan, copy_env(env0), backend=backend, processes=2,
                       **kw)
        return plan, m.collect(write), ref
    m = RUN[entry](plan, copy_env(env0), backend=backend, processes=2, **kw)
    return plan, m.env[write], ref


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(autouse=True)
def all_tiers_available(monkeypatch):
    """Default condition: every tier can run here — mpi on the threaded
    stub."""
    monkeypatch.setenv("REPRO_MPI_STUB", "1")
    monkeypatch.delenv("REPRO_NO_MPI", raising=False)
    reset_mpi_support()
    clear_plan_cache()
    yield
    monkeypatch.undo()
    reset_mpi_support()
    clear_plan_cache()


@pytest.fixture(scope="module", autouse=True)
def dispose_pool():
    yield
    shutdown_runtime()


@pytest.fixture
def ran(monkeypatch):
    """Names of the tiers whose runner completed, in order."""
    log = []

    def spy(tier, fn):
        def run(*args, **kw):
            out = fn(*args, **kw)
            log.append(tier)
            return out
        return run

    real = backends._impl

    def spied(name):
        impl = real(name)
        return impl._replace(
            run={f: spy(name, fn) for f, fn in impl.run.items()})

    monkeypatch.setattr(backends, "_impl", spied)
    return log


def check(entry, backend, ran, tier, notes, **conditions):
    plan, got, ref = run_case(entry, backend, **conditions)
    assert (ran or ["scalar"]) == [tier]
    assert plan.trace.notes == notes
    assert np.array_equal(got, ref)


# ---------------------------------------------------------------------------
# the matrix
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("entry", ENTRIES)
def test_every_tier_runs_itself_when_it_can(entry, backend, ran):
    check(entry, backend, ran, backend, [])


@pytest.mark.parametrize("entry", ENTRIES)
def test_no_mpi_hops_to_fused(entry, ran, monkeypatch):
    monkeypatch.setenv("REPRO_NO_MPI", "1")
    reset_mpi_support()
    check(entry, "mpi", ran, "fused",
          [fell("mpi", "fused", "disabled by REPRO_NO_MPI")])


SEQ_CHAINS = {
    "scalar": [],
    "fused": [fell("fused", "scalar", SERIAL)],
    "mp": [fell("mp", "fused", SERIAL + "; scalar path kept"),
           fell("fused", "scalar", SERIAL)],
    "mpi": [fell("mpi", "fused", SERIAL + "; scalar path kept"),
            fell("fused", "scalar", SERIAL)],
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("entry", ("shared", "shared_nd"))
def test_sequential_clause_ends_on_the_scalar_path(entry, backend, ran):
    check(entry, backend, ran, "scalar", SEQ_CHAINS[backend], seq=True)


TO_TEMPLATE = fell("fused", "scalar", BROADCAST, "template")
REPLICATED_CHAINS = {
    "scalar": [],
    "fused": [TO_TEMPLATE],
    "mp": [fell("mp", "fused", "replicated write is a per-copy broadcast"),
           TO_TEMPLATE],
    "mpi": [fell("mpi", "fused", "replicated write is a per-copy broadcast"),
            TO_TEMPLATE],
}


@pytest.mark.parametrize("backend", BACKENDS)
def test_replicated_write_keeps_the_scalar_template(backend, ran):
    check("dist", backend, ran, "scalar", REPLICATED_CHAINS[backend],
          replicated=True)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("entry", ("dist", "dist_nd"))
def test_preplaced_machine_stays_in_process(entry, backend, ran):
    owner = {"mp": "mp runtime", "mpi": "MPI backend"}.get(backend)
    if owner is None:
        check(entry, backend, ran, backend, [], preplaced=True)
    else:
        check(entry, backend, ran, "fused", [fell(
            backend, "fused", "a pre-placed machine was supplied; the "
            f"{owner} owns its own placement")], preplaced=True)


def no_form_chain(entry, backend):
    """The hops of a plan without kernels, down to the scalar template."""
    what = "template" if entry.startswith("dist") else "path"
    head = [] if backend == "fused" else [fell(backend, "fused", NO_KERNELS)]
    return head + [fell("fused", "scalar", "no fused kernels on the plan",
                        what)]


@pytest.mark.parametrize("backend", ("fused", "mp", "mpi"))
@pytest.mark.parametrize("entry", ENTRIES)
def test_clause_with_no_fused_form_runs_the_vector_tier(entry, backend,
                                                        ran):
    """(Named when ``fused`` fell to the since-retired vector tier: a
    clause with no kernels now ends, one hop later, on the scalar
    template.)"""
    check(entry, backend, ran, "scalar", no_form_chain(entry, backend),
          no_form=True)


# ---------------------------------------------------------------------------
# a read whose axes share a loop dim: Reside_p is an intersection
# ---------------------------------------------------------------------------

M = 8


def projected(dims):
    """``T[i,j] := 2 * S[i_dims[0], i_dims[1]]`` on a 2x2 grid."""
    g = GridDecomposition([Block(M, 2), Block(M, 2)])
    cl = Clause(IndexSet(Bounds((0, 0), (M - 1, M - 1))), ref2("T"),
                Ref("S", ProjectedMap(dims, (IdentityF(), IdentityF()))) * 2)
    rng = np.random.default_rng(5)
    return cl, {"S": g, "T": g}, {"S": rng.random((M, M)),
                                  "T": np.zeros((M, M))}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("entry", ("shared_nd", "dist_nd"))
@pytest.mark.parametrize("dims", ((0, 0), (1, 0)),
                         ids=("diagonal", "transposed"))
def test_projected_read_on_every_backend(dims, entry, backend, ran):
    """``S[i,i]``: both axes read loop dim 0, so ``Reside_p`` is what the
    two enumerations share.  No kernel form (the lane plan wants
    distinct loop dims); one note per hop down to the scalar template,
    which used to send elements nobody received.  ``S[j,i]`` is the
    control: a kernel form on every tier, no hop."""
    cl, decomps, env0 = projected(dims)
    plan = COMPILE[entry](cl, decomps)
    m = RUN[entry](plan, copy_env(env0), backend=backend, processes=2)
    got = m.collect("T") if entry == "dist_nd" else m.env["T"]
    assert np.array_equal(got, evaluate_clause(cl, copy_env(env0))["T"])
    if dims == (1, 0) or backend == "scalar":
        hops, tier = [], backend
    else:
        hops, tier = no_form_chain(entry, backend), "scalar"
    assert plan.trace.notes == hops
    assert (ran or ["scalar"]) == [tier]


# ---------------------------------------------------------------------------
# retired names
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ("vector", "overlap", "native"))
def test_retired_backend_names_are_unknown(name, tmp_path):
    """``vector``, ``overlap`` and ``native`` were tiers once; they get
    the one-line error any unknown name gets, from every entry point."""
    import asyncio

    from repro.cli import main
    from repro.pipeline import compile_program, run_program
    from repro.serve import ERR_BADREQ, ReproService

    line = (f"unknown backend {name!r} for {{}}; valid backends: "
            "scalar, fused, mp, mpi")
    clause, decomps, env0 = clause_for("dist"), decomps_for("dist"), \
        env_for("dist")
    plan = compile_clause(clause, decomps)
    for context, call in (
            ("run_shared", lambda: run_shared(plan, env0, backend=name)),
            ("run_distributed",
             lambda: run_distributed(plan, env0, backend=name)),
            ("run_program", lambda: run_program(
                compile_program([clause], decomps), env0, backend=name))):
        with pytest.raises(backends.UnknownBackendError) as err:
            call()
        assert str(err.value) == line.format(context)

    prog = tmp_path / "prog.pal"
    prog.write_text("for i := 1 to 14 par do\n"
                    "    A[i] := B[i - 1] + B[i + 1];\nod\n")
    arrays = [f"A=block:{N}", f"B=block:{N}"]
    with pytest.raises(SystemExit) as exit_:
        main(["run", str(prog), "--backend", name]
             + [x for a in arrays for x in ("--array", a)])
    assert exit_.value.code == "error: " + line.format("run")

    async def serve_run():
        service = ReproService(workers=1)
        try:
            return await service.handle(
                {"op": "run", "program": prog.read_text(),
                 "arrays": arrays, "backend": name})
        finally:
            service.close()

    error = asyncio.run(serve_run())["error"]
    assert error == {"code": ERR_BADREQ, "message": line.format("serve")}


def test_retired_native_keeps_one_availability_row():
    """The ledger's provenance still reads ``native``'s availability:
    one retired row in the snapshot, and an unknown name everywhere
    else."""
    row = backends.availability_snapshot()["native"]
    assert row["available"] is False and row["mode"] == "retired"
    assert row["reason"].startswith("retired:")
    assert "native" not in backends.backend_names()
    with pytest.raises(backends.UnknownBackendError):
        backends.backend_availability("native")


# ---------------------------------------------------------------------------
# the two nd gaps the shared dispatcher closes
# ---------------------------------------------------------------------------

def racy(entry):
    """In-place shift: reads an element another iteration writes."""
    if entry.endswith("_nd"):
        cl = Clause(IndexSet(Bounds((0, 0), (N - 2, N - 1))), ref2("T"),
                    ref2("T", 1) * 0.5)
        g = GridDecomposition([Block(N, 2), Block(N, 2)])
        return cl, {"T": g}, {"T": np.ones((N, N))}
    cl = Clause(IndexSet(Bounds((0,), (N - 2,))), ref1("A"),
                ref1("A", 1) * 0.5)
    return cl, {"A": Block(N, P)}, {"A": np.ones(N)}


@pytest.mark.parametrize("backend", ("fused", "mp", "mpi"))
@pytest.mark.parametrize("entry", ENTRIES)
def test_strict_refuses_a_flagged_clause_on_every_kernel_tier(entry,
                                                              backend):
    cl, decomps, env0 = racy(entry)
    plan = COMPILE[entry](cl, decomps)
    with pytest.raises(FusedStrictError, match="RACE003"):
        RUN[entry](plan, env0, backend=backend, strict=True, processes=2)


def test_run_program_strict_reaches_nd_steps():
    from repro.pipeline import compile_program, run_program

    cl, decomps, env0 = racy("shared_nd")
    pir = compile_program([cl], decomps)
    for backend in ("fused", "mp", "mpi"):
        with pytest.raises(FusedStrictError, match="RACE003"):
            run_program(pir, copy_env(env0), backend=backend, strict=True,
                        processes=2)


@pytest.mark.parametrize("entry", ("dist", "dist_nd"))
def test_deadlock_cites_the_static_verdict(entry):
    """A send plan with one node's sends removed: its peers wait for
    messages nobody posts.  The simulator's DeadlockError must name the
    SCHED code the static schedule check gives the node kernels that
    ran — one object, corrupted once."""
    plan = COMPILE[entry](clause_for(entry), decomps_for(entry))
    flavor_nodes(plan.ir, "dist")[0].sends = ()
    with pytest.raises(DeadlockError, match="SCHED001"):
        RUN[entry](plan, env_for(entry), backend="fused")


# ---------------------------------------------------------------------------
# env arrays of any dtype and layout ("no dtype guard is needed")
# ---------------------------------------------------------------------------

def strided(a):
    wide = np.zeros(tuple(2 * s for s in a.shape))
    view = wide[tuple(slice(None, None, 2) for _ in a.shape)]
    view[...] = a
    return view


LAYOUTS = {
    "float32": lambda a: a.astype(np.float32),
    "int64": lambda a: (a * 100).astype(np.int64),
    "fortran": np.asfortranarray,
    "strided": strided,
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("backend", ("fused",))
@pytest.mark.parametrize("entry", ENTRIES)
def test_any_env_dtype_and_layout_is_exact_or_a_noted_hop(entry, backend,
                                                          layout, ran):
    """Machines hold float64: a float32 / int64 / Fortran-order /
    strided env array ends bit-identical to the float64 evaluator on
    ``fused``, with no hop and no note — the store goes through the
    write region on any dtype and layout."""
    clause = clause_for(entry)
    env0 = {k: LAYOUTS[layout](v) for k, v in env_for(entry).items()}
    write = clause.lhs.name
    ref = evaluate_clause(clause, {
        k: np.array(v, dtype=np.float64) for k, v in env0.items()})[write]
    plan = COMPILE[entry](clause, decomps_for(entry))
    m = RUN[entry](plan, env0, backend=backend)
    got = m.collect(write) if entry.startswith("dist") else m.env[write]
    assert np.array_equal(got, ref)
    assert ran == [backend] and plan.trace.notes == []


# ---------------------------------------------------------------------------
# result-surface errors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", ("mp", "mpi"))
def test_collect_of_unknown_name_is_a_one_line_error(backend):
    plan = compile_clause(clause_for("dist"), decomps_for("dist"))
    m = run_distributed(plan, env_for("dist"), backend=backend, processes=2)
    assert getattr(m, "is_mp", False) and m.runtime_stats[0].pid
    assert backend == "mp" or m.is_mpi
    with pytest.raises(KeyError, match=r"'Z' was never placed.*'A', 'B'"):
        m.collect("Z")


@pytest.mark.parametrize("backend", ("mp", "mpi"))
def test_a_missing_env_array_is_a_key_error(backend):
    plan = compile_clause(clause_for("dist"), decomps_for("dist"))
    env = {"A": env_for("dist")["A"]}
    for run in (run_shared, run_distributed):
        with pytest.raises(KeyError, match="environment is missing array "
                                           "'B'"):
            run(plan, dict(env), backend=backend, processes=2)


def test_mp_really_ran_on_other_processes():
    plan = compile_clause(clause_for("dist"), decomps_for("dist"))
    m = run_distributed(plan, env_for("dist"), backend="mp", processes=2)
    assert all(s.pid != os.getpid() for s in m.runtime_stats)
