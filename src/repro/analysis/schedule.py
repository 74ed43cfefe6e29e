"""Static message-schedule verification (the ``SCHED`` family).

Every kernel tier executes the plan's node kernels, wrapped per clause
in an :class:`~repro.runtime.lowering.MpProgram`; every send peer,
gather source and touched element is settled by the plan's membership
keys.  So the schedule is proven before a worker ever spawns: messages
on a lowered program's send and gather plans, barriers on the plan's
:class:`~repro.pipeline.ir.Footprint` (per node, the keys it writes and
reads) — which is all :func:`repro.analysis.verify_program` needs: it
builds no node kernel.

``SCHED001``
    Bidirectional message matching.  Every ``(dst, src, pos)`` send key
    in some node's send plan must be expected by exactly the gather plan
    of node ``dst`` (and vice versa), with equal lane counts.  An
    unmatched expectation is a receive that blocks forever; an unmatched
    send is a stray message that poisons a later run's drain.

``SCHED002``
    Barrier placement.  At a fused clause boundary (barrier eliminated)
    no node may read elements of the producer's write that a
    *different* node writes in the same phase — that is exactly the
    cross-processor dependence the fusion proof rules out, re-checked
    here on the footprints rather than the access algebra: two products
    of keys share an element iff their keys meet on every axis
    (:func:`~repro.pipeline.region.overlap`).  Likewise a clause whose
    pre-commit (phase) barrier is elided must meet every condition of
    :func:`phase_barriers`, whoever supplied the elision vector.

``SCHED003``
    Wait-for acyclicity.  Node ``q`` waits on node ``p`` when its gather
    plan expects a message from ``p``.  A cycle through a node with an
    unmatched inbound message means the blocked wait propagates around
    the cycle: whole-schedule deadlock, reported with the cycle path.

A clean check yields a :class:`ScheduleCertificate` — the static
deadlock-freedom proof that runtime crash/deadlock messages cite
(:func:`cite_certificate`), so a failure that *contradicts* a
certificate is distinguishable from an uncertified schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..pipeline.ir import Footprint
from ..pipeline.region import overlap
from .diagnostics import Diagnostic, Severity

__all__ = [
    "PhaseBarrier",
    "ScheduleCertificate",
    "check_schedule",
    "certificate_for",
    "cite_certificate",
    "phase_barriers",
]


@dataclass(frozen=True)
class ScheduleCertificate:
    """Outcome of one static schedule check over a lowered program
    sequence.  ``ok`` means deadlock-freedom was certified."""

    nclauses: int
    pmax: int
    flavors: Tuple[str, ...]
    messages: int          #: matched (dst, src, pos) send keys
    barriers: int          #: kept end-of-clause barriers
    phase_barriers: int = 0       #: kept pre-commit (phase) barriers
    codes: Tuple[str, ...] = ()   #: offending SCHED codes (empty = ok)

    @property
    def ok(self) -> bool:
        return not self.codes

    def describe(self) -> str:
        head = (f"{self.nclauses} clause(s) x {self.pmax} node(s), "
                f"{self.messages} send key(s), {self.barriers} barrier(s), "
                f"{self.phase_barriers} phase barrier(s)")
        if self.ok:
            return (f"schedule statically certified deadlock-free: {head}; "
                    "every send matched 1:1, wait-for graph acyclic "
                    "through unmatched messages")
        return f"schedule certificate DENIED ({', '.join(self.codes)}): {head}"


def _diag(code, message, **kw):
    kw.setdefault("severity", Severity.ERROR)
    return Diagnostic(code=code, message=message, **kw)


def _seen(reads, fp: Footprint, me: int) -> Dict[int, tuple]:
    """Per node other than *me*, the smallest element of *fp*'s write
    array that the read keys *reads* (``(pos, array, keys)``) meet in
    that node's write keys."""
    hits: Dict[int, tuple] = {}
    for _pos, array, keys in reads:
        for p, (write, _) in enumerate(fp.per_node):
            if array != fp.write_name or p == me or write is None:
                continue
            e = overlap(keys, write)
            if e is not None:
                hits[p] = min(e, hits.get(p, e))
    return hits


def _match_messages(prog, label: str) -> Tuple[List[Diagnostic], int, set]:
    """SCHED001 over one lowered program: sends vs expectations.

    Returns ``(diagnostics, matched_count, unmatched_dst_src)`` where the
    set holds ``(dst, src)`` pairs whose expected message never arrives
    (feeds the SCHED003 cycle check)."""
    sent: Dict[tuple, int] = {}
    for nd in prog.nodes:
        for s in nd.sends:
            for q, key in s.peers:
                sent[(int(q), nd.p, s.pos)] = \
                    sent.get((int(q), nd.p, s.pos), 0) + key.size
    expected: Dict[tuple, int] = {}
    for nd in prog.nodes:
        for rd in nd.reads:
            for src, fill in rd.sources:
                expected[(nd.p, int(src), rd.pos)] = \
                    expected.get((nd.p, int(src), rd.pos), 0) + fill.size
    out: List[Diagnostic] = []
    unmatched: set = set()
    for k in sorted(set(sent) | set(expected)):
        dst, src, pos = k
        ns, ne = sent.get(k), expected.get(k)
        if ns is None:
            unmatched.add((dst, src))
            out.append(_diag(
                "SCHED001",
                f"{label}: node {dst} expects {ne} lane(s) of read pos "
                f"{pos} from node {src}, but node {src} sends nothing "
                "under that key — the gather drain blocks forever",
                clause=label, access=f"read{pos}",
                witnesses={dst: [src]}))
        elif ne is None:
            out.append(_diag(
                "SCHED001",
                f"{label}: node {src} sends {ns} lane(s) of read pos "
                f"{pos} to node {dst}, but node {dst} expects no such "
                "message — a stray send poisons the next drain",
                clause=label, access=f"read{pos}",
                witnesses={src: [dst]}))
        elif ns != ne:
            unmatched.add((dst, src))
            out.append(_diag(
                "SCHED001",
                f"{label}: message (dst={dst}, src={src}, pos={pos}) "
                f"carries {ns} lane(s) but the gather expects {ne}",
                clause=label, access=f"read{pos}",
                witnesses={dst: [src]}))
    matched = sum(1 for k in sent if expected.get(k) == sent[k])
    return out, matched, unmatched


def _check_cycles(prog, label: str, unmatched: set) -> List[Diagnostic]:
    """SCHED003: a wait-for cycle through a node whose inbound message
    is unmatched."""
    waits: Dict[int, set] = {}
    for nd in prog.nodes:
        for rd in nd.reads:
            for src, _fill in rd.sources:
                waits.setdefault(nd.p, set()).add(int(src))
    blocked = {dst for dst, _src in unmatched}
    out: List[Diagnostic] = []
    for start in sorted(blocked):
        # DFS: can `start` reach itself through the wait-for edges?
        stack, seen, parent = [start], set(), {}
        cycle = None
        while stack and cycle is None:
            v = stack.pop()
            for w in sorted(waits.get(v, ())):
                if w == start:
                    path = [start]
                    u = v
                    while u != start:
                        path.append(u)
                        u = parent[u]
                    if len(path) == 1:
                        path.append(v)
                    cycle = list(reversed(path)) + [start]
                    break
                if w not in seen:
                    seen.add(w)
                    parent[w] = v
                    stack.append(w)
        if cycle is not None:
            arrows = " -> ".join(f"p{v}" for v in cycle)
            out.append(_diag(
                "SCHED003",
                f"{label}: wait-for cycle {arrows} passes through node "
                f"{start}, whose inbound message is unmatched — the "
                "blocked wait propagates around the cycle (deadlock)",
                clause=label,
                witnesses={start: cycle[1:2]}))
    return out


def _check_fused_boundaries(progs, flags) -> List[Diagnostic]:
    """SCHED002 over maximal fused runs: a consumer clause must not read
    elements of an earlier in-run producer's write that another node
    writes (no barrier separates them)."""
    out: List[Diagnostic] = []
    fps = [getattr(prog, "footprint", prog) for prog in progs]
    for j, prod in enumerate(fps):
        k = j
        while k + 1 < len(fps) and not flags[k]:  # j's fused run
            k += 1
            for q, (_, reads) in enumerate(fps[k].per_node):
                for rd in reads:
                    for p, e in _seen([rd], prod, q).items():
                        out.append(_diag(
                            "SCHED002",
                            f"fused boundary {j}->{k}: node {q} gathers "
                            f"element {e if len(e) > 1 else e[0]} of "
                            f"{prod.write_name!r} which node {p} commits "
                            "in the same phase (no barrier separates them)",
                            clause=f"clause{k}",
                            access=f"read{rd[0]}:{rd[1]}",
                            witnesses={q: [p]}))
    return out


def _phase_hazards(progs, flags, k: int) -> List[Tuple[str, dict]]:
    """Why clause *k*'s pre-commit barrier must stay, as ``(reason,
    witnesses)`` per violated condition of :func:`phase_barriers`;
    empty when the wait may go."""
    out: List[Tuple[str, dict]] = []
    senders = sorted({nd.p for prog in progs for nd in prog.nodes
                      if any(s.peers for s in nd.sends)
                      or any(rd.sources for rd in nd.reads)})
    if senders:
        out.append((f"the program moves messages (node {senders[0]} "
                    "sends or expects one)", {senders[0]: []}))
    if not flags[k - 1]:
        out.append((f"boundary {(k - 1) % len(progs)}->{k} keeps no "
                    "end-of-clause barrier", {}))
    fp = getattr(progs[k], "footprint", progs[k])
    for q, (_, reads) in enumerate(fp.per_node):
        for p, e in sorted(_seen(reads, fp, q).items()):
            out.append((f"node {q} reads element "
                        f"{e if len(e) > 1 else e[0]} of "
                        f"{fp.write_name!r}, which node {p} writes",
                        {q: [p]}))
    return out


class PhaseBarrier(NamedTuple):
    """One clause's pre-commit (phase) barrier: is it waited, and why."""

    kept: bool
    why: str


def phase_barriers(progs, flags) -> Tuple[PhaseBarrier, ...]:
    """Per clause of the sequence *progs* under the end-of-clause flags
    *flags*: may the pre-commit (phase) barrier be skipped?  The one
    place this is decided (§2.9 fn. 1: a barrier goes when no processor
    can observe another's write — within one clause, DILD independence).
    The wait goes when all three hold:

    * the sequence moves no message (every read resident): a sending
      schedule's pre-commit barrier also guards the queue transport's
      send-buffer reuse and MPI's tag window;
    * no node's read keys of the write array meet another node's write
      keys (the footprints, :func:`~repro.pipeline.region.overlap`);
    * the preceding boundary — for clause 0 the wrap-around from the
      previous step — keeps its end-of-clause barrier, so every earlier
      commit is visible and no earlier read is still in flight.

    :func:`check_schedule` certifies every elided wait again."""
    progs = list(progs)
    out = []
    for k in range(len(progs)):
        hazards = _phase_hazards(progs, flags, k)
        out.append(PhaseBarrier(True, f"kept: {hazards[0][0]}") if hazards
                   else PhaseBarrier(False, (
                       "elided: no node reads another's writes of "
                       f"{progs[k].write_name!r} and the preceding "
                       "boundary barriers")))
    return tuple(out)


def check_schedule(
    progs: Sequence[object],
    *,
    flags: Optional[Sequence[bool]] = None,
    phase: Optional[Sequence[bool]] = None,
    repeat: int = 1,
) -> Tuple[List[Diagnostic], ScheduleCertificate]:
    """Statically verify a program sequence — per clause a lowered
    ``MpProgram`` or a plan's :class:`~repro.pipeline.ir.Footprint` —
    and return ``(diagnostics, certificate)``; the certificate is also
    left on every lowered program as ``sched_cert``.

    *flags* are the per-clause barrier flags (``ProgramIR.barrier_flags``);
    omitted means every clause barriers.  *phase* are the per-clause
    pre-commit barrier flags (:func:`phase_barriers`); omitted means
    every clause waits, and every elided wait is certified again here.
    The certificate is the static deadlock-freedom proof — denied
    (``ok=False``) when any SCHED error was found."""
    progs = list(progs)
    out: List[Diagnostic] = []
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
                    for reason, witnesses in _phase_hazards(progs, flags, k)]
    out += _check_fused_boundaries(progs, flags)
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
    for prog in progs:
        if not isinstance(prog, Footprint):
            prog.sched_cert = cert
    return out, cert


def _flag_vector(flags, progs, what: str, out: List[Diagnostic]) -> list:
    """*flags* as one boolean per clause (all ``True`` when omitted); a
    vector of the wrong length is a SCHED002 error, padded with ``True``."""
    if flags is None:
        return [True] * len(progs)
    flags = list(flags)
    if len(flags) != len(progs):
        out.append(_diag(
            "SCHED002",
            f"{what} flag vector has {len(flags)} entries for "
            f"{len(progs)} lowered clause(s) — the pre-commit protocol "
            "cannot line up"))
        flags = (flags + [True] * len(progs))[:len(progs)]
    return flags


def certificate_for(progs, *, flags=None, repeat=1) -> ScheduleCertificate:
    """Convenience wrapper returning only the certificate."""
    _, cert = check_schedule(progs, flags=flags, repeat=repeat)
    return cert


def cite_certificate(err, cert: Optional[ScheduleCertificate]):
    """Append the static schedule verdict to a runtime failure message
    (``WorkerCrashError`` / ``DeadlockError``), so a crash contradicting
    a certificate is distinguishable from an uncertified schedule.  The
    error object is returned with only its message amended."""
    if not getattr(err, "args", None) or not isinstance(err.args[0], str):
        return err
    if cert is None:
        note = "[no SCHED certificate was computed for this schedule]"
    elif cert.ok:
        note = (f"[SCHED certificate: {cert.describe()} — this failure "
                "contradicts the certificate; suspect a crashed or hung "
                "worker, not message matching]")
    else:
        note = (f"[SCHED certificate denied: {', '.join(cert.codes)} — "
                "run `repro check` on this program]")
    err.args = (f"{err.args[0]} {note}",) + err.args[1:]
    return err
