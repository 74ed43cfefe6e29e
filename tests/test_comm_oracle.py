"""``analyze_comm`` against its per-node predecessor.

The analysis computes each access's out-of-bounds loop indices once, as
one key over the loop span, and meets it with the nodes' ``Modify_p`` /
``Reside_p`` only when it is non-empty.  The oracle below is the earlier
algorithm, kept verbatim: for every read and every node it subtracts the
in-bounds bands from ``Modify_p`` and ``Reside_p`` directly.  Over 1-D
clauses with affine, modular, monotone and constant reads under Block,
Scatter and BS(b), on domains that push a read or the write out of
bounds, the two must produce the same diagnostics: code, message,
witnesses and every other field.
"""

from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.comm import _MAX_WITNESSES, _in_bounds, _outside, analyze_comm
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.support import BudgetExceeded, first_members
from repro.core import AffineF, Clause, ConstantF, IndexSet, Ref, SeparableMap
from repro.core.clause import Ordering
from repro.core.ifunc import ModularF, MonotoneF
from repro.decomp import Block, BlockScatter, Scatter
from repro.pipeline import compile_plan
from repro.pipeline.region import minus


def per_node_comm(ir) -> List[Diagnostic]:
    """The per-node walk: five key operations per read per node."""
    out: List[Diagnostic] = []
    w = ir.write
    if (ir.clause.ordering is not Ordering.PAR or ir.ndim != 1
            or w is None or not w.placed or w.replicated
            or not w.axes or w.axes[0].access is None):
        return out
    span = tuple(ir.loop_bounds[0])
    positions = [acc.pos for acc in ir.reads]
    if len(positions) != len(set(positions)):
        dup = next(p for p in positions if positions.count(p) > 1)
        out.append(Diagnostic(
            code="COMM002",
            message=f"two reads share tag position {dup}: their messages "
                    "collide on every common channel",
            span=span,
            hint="read positions come from Clause.reads(); rebuild the "
                 "plan instead of mutating it",
        ))
    wf = w.funcs[0]
    lanes = ir.member_keys(w)
    for acc in ir.reads:
        if not acc.placed or acc.replicated or not acc.axes \
                or acc.axes[0].access is None:
            continue
        g = acc.funcs[0]
        n_read = acc.dec.n
        recv_witness: dict = {}
        send_witness: dict = {}
        try:
            read_ok = _in_bounds(g, n_read, *span)
            write_ok = _in_bounds(wf, w.dec.n, *span)
            for p, ((modify,), (reside,)) in enumerate(
                    zip(lanes, ir.member_keys(acc))):
                bad = first_members(
                    minus(_outside(modify, read_ok), reside), _MAX_WITNESSES)
                if bad:
                    recv_witness[p] = bad
                bad = first_members(_outside(reside, write_ok),
                                    _MAX_WITNESSES)
                if bad:
                    send_witness[p] = bad
        except BudgetExceeded as exc:
            out.append(Diagnostic(
                code="CHK001",
                severity=Severity.WARNING,
                message=f"communication analysis incomplete: {exc}",
                access=f"{acc.label}:{acc.name}",
                span=span,
            ))
            continue
        if recv_witness:
            p0 = min(recv_witness)
            i0 = recv_witness[p0][0]
            out.append(Diagnostic(
                code="COMM001",
                message=f"node {p0} must receive {acc.name}[{g(i0)}] for "
                        f"i={i0}, but no processor owns that element: the "
                        "blocking recv never completes",
                access=f"{acc.label}:{acc.name}",
                span=span,
                witnesses=recv_witness,
                hint=f"keep {g.name} inside [0, {n_read}) over the "
                     "domain, or shrink the domain",
            ))
        if send_witness:
            p0 = min(send_witness)
            i0 = send_witness[p0][0]
            out.append(Diagnostic(
                code="COMM003",
                message=f"node {p0} owns {acc.name}[{g(i0)}] for i={i0} "
                        f"and targets proc_{w.name}({wf.name}={wf(i0)}), "
                        "which is outside the array: the message is "
                        "undeliverable",
                access=f"{acc.label}:{acc.name}",
                span=span,
                witnesses=send_witness,
                hint=f"keep the write access {wf.name} inside "
                     f"[0, {w.dec.n}) over the domain",
            ))
    return out


P = 4


@st.composite
def decomposition(draw, n):
    kind = draw(st.sampled_from(["block", "scatter", "bs"]))
    if kind == "block":
        return Block(n, P)
    if kind == "scatter":
        return Scatter(n, P)
    return BlockScatter(n, P, draw(st.integers(1, 4)))


@st.composite
def read_function(draw, n):
    kind = draw(st.sampled_from(["affine", "modular", "monotone", "constant"]))
    c = draw(st.integers(-4, n + 3))
    if kind == "affine":
        a = draw(st.sampled_from([1, -1, 2, -2, 3]))
        return AffineF(a, c if a > 0 else n - 1 + c // 2)
    if kind == "modular":
        z = draw(st.integers(1, n + 4))
        return ModularF(AffineF(draw(st.integers(1, 2)), c), z,
                        draw(st.integers(-2, 3)))
    if kind == "monotone":
        if draw(st.booleans()):
            return MonotoneF(lambda i, c=c: i * i // 8 + c - 4, 1,
                             name=f"sq8(i){c - 4:+d}")
        return MonotoneF(lambda i, c=c: c - i * i // 8, -1,
                         name=f"{c}-sq8(i)")
    return ConstantF(c)


@st.composite
def clause_case(draw):
    n = draw(st.integers(8, 40))
    lo = draw(st.integers(0, n // 2))
    hi = draw(st.integers(lo, n + 4))  # past n - 1: the write leaves A
    wf = AffineF(draw(st.sampled_from([1, 2])), draw(st.integers(-2, 2)))
    reads = draw(st.lists(read_function(n), min_size=1, max_size=3))
    rhs = Ref("B", SeparableMap([reads[0]]))
    for k, g in enumerate(reads[1:]):
        rhs = rhs + Ref("BC"[k % 2], SeparableMap([g]))
    clause = Clause(IndexSet.range1d(lo, hi), Ref("A", SeparableMap([wf])),
                    rhs)
    decomps = {"A": draw(decomposition(n)), "B": draw(decomposition(n)),
               "C": draw(decomposition(n))}
    return clause, decomps


class TestCommAgainstThePerNodeWalk:
    @settings(max_examples=300, deadline=None)
    @given(case=clause_case())
    def test_identical_diagnostics(self, case):
        clause, decomps = case
        ir = compile_plan(clause, decomps)
        assert analyze_comm(ir) == per_node_comm(ir)

    def test_a_read_and_the_write_out_of_bounds(self):
        # B[i-3] leaves B below i = 3; A[i] leaves A from i = 24 on,
        # where B[21], B[22] still have owners that would send
        clause = Clause(IndexSet.range1d(0, 25),
                        Ref("A", SeparableMap([AffineF(1, 0)])),
                        Ref("B", SeparableMap([AffineF(1, -3)])))
        decomps = {"A": Block(24, P), "B": Scatter(24, P)}
        ir = compile_plan(clause, decomps)
        got = analyze_comm(ir)
        assert [d.code for d in got] == ["COMM001", "COMM003"]
        assert got == per_node_comm(ir)
