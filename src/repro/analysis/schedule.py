"""Static message-schedule verification (the ``SCHED`` family).

Every kernel tier — the simulator, the mp workers, the MPI ranks —
executes the plan's node kernels: per-node send plans, gather plans and
blocks computed once at compile time as regions
(:mod:`repro.pipeline.kernels`), wrapped per clause in an
:class:`~repro.runtime.lowering.MpProgram`.  Because every send peer and
every expected gather source is a compile-time constant, the whole
message schedule can be proven consistent on the very objects that run,
before a worker ever spawns:

``SCHED001``
    Bidirectional message matching.  Every ``(dst, src, pos)`` send key
    in some node's send plan must be expected by exactly the gather plan
    of node ``dst`` (and vice versa), with equal lane counts.  An
    unmatched expectation is a receive that blocks forever; an unmatched
    send is a stray message that poisons a later run's drain.

``SCHED002``
    Barrier placement.  At a fused clause boundary (barrier eliminated)
    no node may gather elements of the producer's write that a
    *different* node commits in the same phase — that is exactly the
    cross-processor dependence the fusion proof rules out, re-checked
    here against the kernels' global regions rather than the access
    algebra: two product regions share an element iff their keys meet
    on every axis (:meth:`~repro.pipeline.region.Region.overlap`).

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
from typing import Dict, List, Optional, Sequence, Tuple

from .diagnostics import Diagnostic, Severity

__all__ = [
    "ScheduleCertificate",
    "check_schedule",
    "certificate_for",
    "cite_certificate",
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
    codes: Tuple[str, ...] = ()   #: offending SCHED codes (empty = ok)

    @property
    def ok(self) -> bool:
        return not self.codes

    def describe(self) -> str:
        head = (f"{self.nclauses} clause(s) x {self.pmax} node(s), "
                f"{self.messages} send key(s), {self.barriers} barrier(s)")
        if self.ok:
            return (f"schedule statically certified deadlock-free: {head}; "
                    "every send matched 1:1, wait-for graph acyclic "
                    "through unmatched messages")
        return f"schedule certificate DENIED ({', '.join(self.codes)}): {head}"


def _diag(code, message, **kw):
    kw.setdefault("severity", Severity.ERROR)
    return Diagnostic(code=code, message=message, **kw)


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
    """SCHED002 over maximal fused runs: a consumer clause must not
    gather elements of an earlier in-run producer's write that another
    node commits (no barrier separates them)."""
    out: List[Diagnostic] = []
    runs: List[List[int]] = []
    current = [0]
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
                        if rd.name != prod.write_name:
                            continue
                        hits: Dict[int, tuple] = {}
                        for p, write in commits:
                            e = rd.mem.overlap(write) if p != nd.p else None
                            if e is not None:
                                hits[p] = min(e, hits.get(p, e))
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


def check_schedule(
    progs: Sequence[object],
    *,
    flags: Optional[Sequence[bool]] = None,
    repeat: int = 1,
) -> Tuple[List[Diagnostic], ScheduleCertificate]:
    """Statically verify a program sequence (``MpProgram`` per clause)
    and return ``(diagnostics, certificate)``; the certificate is also
    left on every program as ``sched_cert``.

    *flags* are the per-clause barrier flags (``ProgramIR.barrier_flags``);
    omitted means every clause barriers.  The certificate is the static
    deadlock-freedom proof — denied (``ok=False``) when any SCHED error
    was found."""
    progs = list(progs)
    out: List[Diagnostic] = []
    if flags is None:
        flags = [True] * len(progs)
    flags = list(flags)
    if len(flags) != len(progs):
        out.append(_diag(
            "SCHED002",
            f"barrier flag vector has {len(flags)} entries for "
            f"{len(progs)} lowered clause(s) — the pre-commit protocol "
            "cannot line up"))
        flags = (flags + [True] * len(progs))[:len(progs)]
    messages = 0
    for k, prog in enumerate(progs):
        label = f"clause{k}"
        diags, matched, unmatched = _match_messages(prog, label)
        out += diags
        messages += matched
        out += _check_cycles(prog, label, unmatched)
    out += _check_fused_boundaries(progs, flags)
    cert = ScheduleCertificate(
        nclauses=len(progs),
        pmax=max((p.pmax for p in progs), default=0),
        flavors=tuple(sorted({p.flavor for p in progs})),
        messages=messages,
        barriers=sum(1 for f in flags if f) * max(1, int(repeat)),
        codes=tuple(sorted({d.code for d in out if d.is_error})),
    )
    for prog in progs:
        prog.sched_cert = cert
    return out, cert


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
