"""The whole-program verifier on keys against the element and node
computations it replaced.

``verify_program`` decides placement agreement (PROG002 / PROG003) on
the per-node owned keys of two decompositions, and certifies phase
barriers and fused boundaries (SCHED002) on the plans' footprints,
building no node kernel.  Its predecessors live on here as oracles:

* the element walk: an owner-per-element vector from ``proc_array`` over
  every index, compared lane by lane;
* the node computation: each step lowered to its ``shared`` flavor, and
  every node's read regions of the write array intersected with every
  other node's commit regions.

Verdicts, witnesses, phase vectors, certificates and every diagnostic
must be equal.
"""

import glob
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from benchmarks.ledger import compilecold
from benchmarks.ledger.stencils import e19_clause, grid2x2
from repro import Block, Clause, IndexSet, Ref, Scatter
from repro.analysis import check_schedule, clear_verify_cache, verify_program
from repro.analysis import program_verifier
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.schedule import (PhaseBarrier, ScheduleCertificate,
                                     _check_cycles, _flag_vector,
                                     _match_messages, phase_barriers)
from repro.cacheinfo import clear_all_caches
from repro.core import AffineF, IdentityF, SeparableMap
from repro.core.clause import Program
from repro.decomp import BlockScatter, GridDecomposition
from repro.decomp.multidim import Collapsed
from repro.decomp.replicated import Replicated, SingleOwner
from repro.decomp.spec import parse_spec
from repro.frontend import translate_source
from repro.pipeline import compile_program
from repro.pipeline.region import overlap
from repro.runtime.lowering import MpLoweringError, lower_shared

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_all_caches()
    yield
    clear_all_caches()


# ---------------------------------------------------------------------------
# placement: the element walk
# ---------------------------------------------------------------------------

def oracle_layout_vec(dec) -> np.ndarray:
    """Element -> owning processor, row-major, from ``proc_array`` over
    every index (a replicated axis is -1, linearized like any other)."""
    if isinstance(dec, GridDecomposition):
        out = np.zeros(1, dtype=np.int64)
        for g, ax in zip(dec.grid_shape, dec.dims):
            out = (out[:, None] * g + oracle_layout_vec(ax)[None, :]).ravel()
        return out
    if dec.is_replicated:
        return np.full(dec.n, -1, dtype=np.int64)
    return np.asarray(dec.proc_array(np.arange(dec.n, dtype=np.int64)),
                      dtype=np.int64)


def oracle_placement_witness(d1, d2):
    l1, l2 = oracle_layout_vec(d1), oracle_layout_vec(d2)
    if l1.shape != l2.shape:
        return (0, int(l1.size), int(l2.size))
    diff = l1 != l2
    if not diff.any():
        return None
    e = int(np.argmax(diff))
    return (e, int(l1[e]), int(l2[e]))


@st.composite
def axis(draw, n, pmax=None):
    """One 1-D decomposition of *n* elements: Block (implicit or wide
    blocks, some nodes empty), Scatter, BS(b) with a partial last course,
    single owner, replicated; ``pmax = 1`` included."""
    pmax = draw(st.integers(1, 5)) if pmax is None else pmax
    kind = draw(st.sampled_from(
        ["block", "wide", "scatter", "bs", "single", "replicated"]))
    if kind == "block":
        return Block(n, pmax)
    if kind == "wide":
        return Block(n, pmax, -(-n // pmax) + draw(st.integers(0, 3)))
    if kind == "scatter":
        return Scatter(n, pmax)
    if kind == "bs":
        return BlockScatter(n, pmax, draw(st.integers(1, 7)))
    if kind == "single":
        return SingleOwner(n, pmax, draw(st.integers(0, pmax - 1)))
    return Replicated(n, pmax)


@st.composite
def grid(draw, shape, grid_shape=None):
    grid_shape = grid_shape or (draw(st.integers(1, 3)),
                                draw(st.integers(1, 3)))
    axes = []
    for n, g in zip(shape, grid_shape):
        if g == 1 and draw(st.booleans()):
            axes.append(Collapsed(n))
        else:
            axes.append(draw(axis(n, g)))
    return GridDecomposition(axes)


@st.composite
def decomposition_pair(draw):
    """Two decompositions of one array (1-D ones of another size, too);
    the second is often drawn over the same processor count or grid, so
    that agreeing pairs are common."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 40))
        d1 = draw(axis(n))
        n2 = n if draw(st.integers(0, 5)) else draw(st.integers(1, 40))
        same_p = draw(st.booleans())
        return d1, draw(axis(n2, d1.pmax if same_p else None))
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    g1 = draw(grid(shape))
    same = draw(st.booleans())
    return g1, draw(grid(shape, g1.grid_shape if same else None))


class TestPlacementOracle:
    @settings(max_examples=400, deadline=None)
    @given(pair=decomposition_pair())
    def test_keys_agree_with_the_element_walk(self, pair):
        d1, d2 = pair
        assert program_verifier._placement_witness(d1, d2) == \
            oracle_placement_witness(d1, d2)

    @pytest.mark.parametrize("d1, d2", [
        (Block(21, 4), BlockScatter(21, 4, 6)),    # Block is one course
        (Scatter(21, 4), BlockScatter(21, 4, 1)),
        (Block(21, 1), Scatter(21, 1)),            # one node owns all
        (BlockScatter(23, 3, 4), BlockScatter(23, 3, 4)),
        (Replicated(9, 3), Replicated(9, 3)),
    ])
    def test_agreeing_pairs(self, d1, d2):
        assert program_verifier._placement_witness(d1, d2) is None
        assert oracle_placement_witness(d1, d2) is None

    def test_past_the_element_budget(self):
        """No budget: a 2**21-element pair is decided, witness and all."""
        n = 1 << 21
        assert program_verifier._placement_witness(
            Block(n, 4), Block(n, 4)) is None
        assert program_verifier._placement_witness(
            Block(n, 4), Scatter(n, 4)) == (1, 0, 1)
        assert program_verifier._placement_witness(
            Block(n, 4), BlockScatter(n, 4, n // 8)) == (n // 8, 0, 1)


# ---------------------------------------------------------------------------
# schedule: the node computation
# ---------------------------------------------------------------------------

def _diag(code, message, **kw):
    kw.setdefault("severity", Severity.ERROR)
    return Diagnostic(code=code, message=message, **kw)


def _node_seen(reads, name, commits, me):
    hits = {}
    for rd in reads:
        if rd.name != name:
            continue
        for p, write in commits:
            e = overlap(rd.mem.keys, write.keys) if p != me else None
            if e is not None:
                hits[p] = min(e, hits.get(p, e))
    return hits


def oracle_phase_hazards(progs, flags, k):
    out = []
    senders = sorted({nd.p for prog in progs for nd in prog.nodes
                      if any(s.peers for s in nd.sends)
                      or any(rd.sources for rd in nd.reads)})
    if senders:
        out.append((f"the program moves messages (node {senders[0]} "
                    "sends or expects one)", {senders[0]: []}))
    if not flags[k - 1]:
        out.append((f"boundary {(k - 1) % len(progs)}->{k} keeps no "
                    "end-of-clause barrier", {}))
    prog = progs[k]
    commits = [(nd.p, blk.write) for nd in prog.nodes for blk in nd.commits]
    for nd in prog.nodes:
        hits = _node_seen(nd.reads, prog.write_name, commits, nd.p)
        for p, e in sorted(hits.items()):
            out.append((f"node {nd.p} reads element "
                        f"{e if len(e) > 1 else e[0]} of "
                        f"{prog.write_name!r}, which node {p} writes",
                        {nd.p: [p]}))
    return out


def oracle_phase_barriers(progs, flags):
    out = []
    for k, prog in enumerate(progs):
        hazards = oracle_phase_hazards(progs, flags, k)
        out.append(PhaseBarrier(True, f"kept: {hazards[0][0]}") if hazards
                   else PhaseBarrier(False, (
                       "elided: no node reads another's writes of "
                       f"{prog.write_name!r} and the preceding "
                       "boundary barriers")))
    return tuple(out)


def oracle_fused_boundaries(progs, flags):
    out, runs, current = [], [], [0]
    for k in range(len(progs) - 1):
        if flags[k]:
            runs.append(current)
            current = [k + 1]
        else:
            current.append(k + 1)
    runs.append(current)
    for run in runs:
        for j_pos, j in enumerate(run):
            prod = progs[j]
            commits = [(nd.p, blk.write) for nd in prod.nodes
                       for blk in nd.commits]
            for k in run[j_pos + 1:]:
                for nd in progs[k].nodes:
                    for rd in nd.reads:
                        hits = _node_seen([rd], prod.write_name, commits,
                                          nd.p)
                        for p, e in hits.items():
                            out.append(_diag(
                                "SCHED002",
                                f"fused boundary {j}->{k}: node "
                                f"{nd.p} gathers element "
                                f"{e if len(e) > 1 else e[0]} of "
                                f"{prod.write_name!r} which node {p} "
                                "commits in the same phase (no "
                                "barrier separates them)",
                                clause=f"clause{k}",
                                access=f"read{rd.pos}:{rd.name}",
                                witnesses={nd.p: [p]}))
    return out


def oracle_check_schedule(progs, flags=None, phase=None, repeat=1):
    out = []
    flags = _flag_vector(flags, progs, "barrier", out)
    phase = _flag_vector(phase, progs, "phase barrier", out)
    messages = 0
    for k, prog in enumerate(progs):
        label = f"clause{k}"
        diags, matched, unmatched = _match_messages(prog, label)
        out += diags
        messages += matched
        out += _check_cycles(prog, label, unmatched)
        if not phase[k]:
            out += [_diag("SCHED002",
                          f"{label}: pre-commit barrier elided, but "
                          f"{reason} — a commit can race a read",
                          clause=label, witnesses=witnesses)
                    for reason, witnesses
                    in oracle_phase_hazards(progs, flags, k)]
    out += oracle_fused_boundaries(progs, flags)
    steps = max(1, int(repeat))
    cert = ScheduleCertificate(
        nclauses=len(progs),
        pmax=max((p.pmax for p in progs), default=0),
        flavors=tuple(sorted({p.flavor for p in progs})),
        messages=messages,
        barriers=sum(1 for f in flags if f) * steps,
        phase_barriers=sum(1 for f in phase if f) * steps,
        codes=tuple(sorted({d.code for d in out if d.is_error})),
    )
    return out, cert


def oracle_verify_schedule(pir, report):
    """The schedule step as it was: build every step's per-node shared
    kernels — the ``union`` flavor with one process per node — and
    check them."""
    progs = []
    for st_ in pir.steps:
        try:
            progs.append(lower_shared(st_.ir, procs=st_.ir.pmax))
        except MpLoweringError as why:
            report.add(_diag(
                "CHK001",
                f"schedule of clause {st_.index} ({st_.name}) unverified: "
                f"no mp form ({why})",
                severity=Severity.INFO, clause=st_.name))
            return None, ()
    flags = pir.barrier_flags()
    phase = oracle_phase_barriers(progs, flags)
    diags, cert = oracle_check_schedule(
        progs, flags, [b.kept for b in phase], pir.repeat)
    report.extend(diags)
    return cert, phase


# -- the corpus ---------------------------------------------------------------

def _ref(name, shift=0):
    return Ref(name, SeparableMap([AffineF(1, shift) if shift
                                   else IdentityF()]))


def _examples():
    out = []
    for pal in sorted(glob.glob(os.path.join(ROOT, "examples", "programs",
                                             "*.pal"))):
        with open(pal) as f, open(pal[:-4] + ".spec") as g:
            source, spec = f.read(), g.read()
        out.append((os.path.basename(pal), lambda s=source, t=spec: (
            translate_source(s, {}), parse_spec(t), {})))
        if "stencil" in pal:
            out.append(("stencil-steps", lambda s=source, t=spec: (
                translate_source(s, {}), parse_spec(t),
                {"repeat": 3, "swap": (("V", "U"),)})))
    return out


def _compile_cold():
    out, cell = [], 0
    for family in compilecold.FAMILIES:
        for kind in compilecold.KINDS:
            n, pmax = compilecold.SIZES[cell % len(compilecold.SIZES)]
            cell += 1
            source, spec = family(n // 8, kind, pmax, 2 + cell % 6)
            out.append((f"{family.__name__}-{kind}",
                        lambda s=source, t=spec: (
                            translate_source(s, {}), parse_spec(t), {})))
    return out


def _fixtures():
    n, p = 24, 4
    whole = IndexSet.range1d(1, n - 2)

    def e19():
        grid = grid2x2(32)
        return (Program([e19_clause(32)]), {"S": grid, "T": grid},
                {"repeat": 4, "swap": (("S", "T"),)})

    def self_overlap():  # nodes read their neighbours' writes of A
        return ([Clause(whole, _ref("A"), _ref("A", -1) + _ref("A", 1))],
                {"A": Block(n, p)}, {})

    def e13_loop():
        return ([Clause(whole, _ref("A"), _ref("B", -1) + _ref("B", 1))],
                {"A": Block(n, p), "B": Block(n, p)},
                {"repeat": 2, "swap": (("A", "B"),)})

    def fused_pair():  # the fixture of the SCHED002 / PROG001 tests
        c1 = Clause(IndexSet.range1d(1, n - 1), _ref("A"), _ref("B"))
        c2 = Clause(IndexSet.range1d(1, n - 1), _ref("C"), _ref("A", -1))
        return [c1, c2], {x: Block(n, p) for x in "ABC"}, {}

    def chain_scatter():
        c1 = Clause(IndexSet.range1d(0, n - 1), _ref("V"), _ref("U"))
        c2 = Clause(IndexSet.range1d(0, n - 1), _ref("W"), _ref("V"))
        return [c1, c2], {x: Scatter(n, p) for x in "UVW"}, {}

    def out_of_bounds():  # node 3 reads B[24]: the shared flavor's KRN001
        c = Clause(IndexSet.range1d(0, n - 1), _ref("A"), _ref("B", 1))
        return [c, c], {"A": Block(n, p), "B": Block(n, p)}, {}

    return [("e19-2x2", e19), ("self-overlap", self_overlap),
            ("e13-loop", e13_loop), ("fused-pair", fused_pair),
            ("chain-scatter", chain_scatter),
            ("out-of-bounds", out_of_bounds)]


CORPUS = _examples() + _compile_cold() + _fixtures()


def _unfuse(pir):
    """The tampered fused pair: every barrier between clauses dropped."""
    for step in pir.steps[:-1]:
        step.barrier_after = False
    pir.groups = [list(range(len(pir.steps)))]
    return pir


def assert_verify_equals_the_node_computation(pir):
    """``verify_program`` on keys, then again with the element walk and
    the node computation swapped in: every result must be equal."""
    got = verify_program(pir, use_cache=False)
    assert all(st_.ir.kernels is None or st_.ir.kernels.built() == {}
               for st_ in pir.steps)  # verification built nothing
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(program_verifier, "_verify_schedule",
                   oracle_verify_schedule)
        mp.setattr(program_verifier, "_placement_witness",
                   oracle_placement_witness)
        want = verify_program(pir, use_cache=False)
    assert got.phase == want.phase
    assert (got.certificate is None) == (want.certificate is None)
    if got.certificate is not None:
        assert got.certificate.describe() == want.certificate.describe()
    assert got.program.diagnostics == want.program.diagnostics
    assert got.pretty() == want.pretty()


@st.composite
def drawn_program(draw):
    """1-3 clauses ``W[a*i] := R1[i+s1] + R2[i+s2]`` over four arrays,
    each under Block, Scatter or BS(b), maybe a swapped time loop."""
    n, p = draw(st.sampled_from([12, 17, 24])), draw(st.integers(1, 4))
    kinds = [lambda: Block(n, p), lambda: Scatter(n, p),
             lambda: BlockScatter(n, p, draw(st.integers(2, 3)))]
    decomps = {x: draw(st.sampled_from(kinds))() for x in "ABCD"}
    clauses = []
    for _ in range(draw(st.integers(1, 3))):
        w, r1, r2 = (draw(st.sampled_from("ABCD")) for _ in range(3))
        a = draw(st.sampled_from([1, 1, 2]))
        s1, s2 = draw(st.integers(-1, 1)), draw(st.integers(-1, 1))
        write = Ref(w, SeparableMap([AffineF(a, 0)]))
        clauses.append(Clause(IndexSet.range1d(1, (n - 2) // a), write,
                              _ref(r1, s1) + _ref(r2, s2)))
    kw = {"repeat": 3, "swap": (("A", "B"),)} if draw(st.booleans()) else {}
    return clauses, decomps, kw


class TestScheduleOracle:
    @pytest.mark.parametrize("tamper", [False, True],
                             ids=["as-compiled", "unfused"])
    @pytest.mark.parametrize("name, make", CORPUS,
                             ids=[name for name, _ in CORPUS])
    def test_verify_program_equals_the_node_computation(self, name, make,
                                                        tamper):
        program, decomps, kw = make()
        pir = compile_program(program, decomps, **kw)
        assert_verify_equals_the_node_computation(
            _unfuse(pir) if tamper else pir)

    @settings(max_examples=60, deadline=None)
    @given(drawn=drawn_program(), tamper=st.booleans())
    def test_drawn_programs_equal_the_node_computation(self, drawn, tamper):
        clear_all_caches()
        pir = compile_program(*drawn[:2], **drawn[2])
        assert_verify_equals_the_node_computation(
            _unfuse(pir) if tamper else pir)

    @pytest.mark.parametrize("name, make", CORPUS,
                             ids=[name for name, _ in CORPUS])
    def test_lowered_check_equals_the_node_computation(self, name, make):
        """``check_schedule`` over the lowered ``shared`` programs —
        what ``run --backend mp`` certifies, here with one process per
        node — under every barrier vector forced down, so every SCHED002
        reason is exercised."""
        program, decomps, kw = make()
        pir = compile_program(program, decomps, **kw)
        try:
            progs = [lower_shared(st_.ir, procs=st_.ir.pmax)
                     for st_ in pir.steps]
        except MpLoweringError:
            return
        k = len(progs)
        for flags in (pir.barrier_flags(), [False] * k, [True] * k):
            assert phase_barriers(progs, flags) == \
                oracle_phase_barriers(progs, flags)
            for phase in ([False] * k, [True] * k):
                got, gcert = check_schedule(progs, flags=flags, phase=phase,
                                            repeat=3)
                want, wcert = oracle_check_schedule(progs, flags, phase, 3)
                assert got == want
                assert gcert == wcert
