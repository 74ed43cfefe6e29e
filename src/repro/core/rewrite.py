"""The Section 2.6-2.7 rewriting pipeline, made executable.

The paper derives SPMD programs from the canonical clause by a chain of
calculus rewrites:

1. **canonical form** (Eq. 1)
       ``∆(i ∈ (imin:imax)) ◊ [f(i)]A := Expr([g(i)](B))``
2. **decomposition substitution** — replace ``A`` by ``V(A')`` with
   ``ip(j) = (proc_A(j), local_A(j))`` and likewise ``B`` (pre-Eq. 2);
3. **contraction** (Definition 5's derived result) — collapse the nested
   parameter expressions into direct ``[proc(f(i)), local(f(i))]``
   selections (Eq. 2);
4. **renaming** — ``[E(i), ...] ⇒ ∆(e | E(i) = e)[e, ...]`` introduces
   the processor parameter ``p`` with predicate ``proc_A(f(i)) = p``;
5. **interchange** — move ``∆(p ∈ 0:pmax-1)`` leftmost, migrating the
   predicate inward (Eq. 3): one node program per ``p``;
6. **data retrieval split** (§2.7) — reads become local accesses when
   ``proc_B(g(i)) = p`` and ``fetch`` operations otherwise.

Each :class:`DerivationStep` carries the pretty-printed V-cal form *and*
an executable interpretation; :meth:`SPMDDerivation.check` verifies that
every step computes the same function — the reproduction's proof that the
rewrite chain is semantics-preserving, not just notation.

Only ``//`` clauses are derived (the paper's Eq. (3) interchange step is
what licenses per-processor instantiation; a ``•`` clause would need the
DOACROSS machinery instead).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from ..decomp.base import Decomposition
from .clause import Clause, Ordering
from .evaluator import copy_env, evaluate_clause
from .expr import eval_fetched

__all__ = ["DerivationStep", "SPMDDerivation", "derive_spmd",
           "derivation_forms"]

Env = Dict[str, np.ndarray]


@dataclass
class DerivationStep:
    """One rewrite: its rule name, the V-cal form after applying it, and
    an executable interpretation (env -> final value of the written
    array)."""

    rule: str
    form: str
    run: Callable[[Env], np.ndarray]


@dataclass
class SPMDDerivation:
    """The full §2.6-2.7 chain for one clause + decompositions."""

    clause: Clause
    decomps: Dict[str, Decomposition]
    steps: List[DerivationStep] = field(default_factory=list)

    def forms(self) -> List[str]:
        return [f"[{s.rule}]\n    {s.form}" for s in self.steps]

    def pretty(self) -> str:
        return "\n".join(self.forms())

    def as_trace(self):
        """The derivation as a :class:`~repro.pipeline.trace.PipelineTrace`.

        The same record format the PassManager produces, so the CLI and
        reports can render derivations and compilations uniformly."""
        from ..pipeline.trace import PassRecord, PipelineTrace

        trace = PipelineTrace(label=f"derivation {self.clause.name!r}")
        for step in self.steps:
            trace.add(PassRecord(
                name=step.rule,
                paper="§2.6-2.7",
                rewrites=1,
                notes=[step.form],
            ))
        return trace

    def check(self, env: Env) -> np.ndarray:
        """Execute every step on *env*; assert all agree; return the
        common result."""
        results = [step.run(copy_env(env)) for step in self.steps]
        ref = results[0]
        for step, got in zip(self.steps[1:], results[1:]):
            if not np.allclose(got, ref):
                raise AssertionError(
                    f"derivation step {step.rule!r} changed semantics"
                )
        return ref


def derivation_forms(clause: Clause, decomps: Dict[str, Decomposition]):
    """``(rule, V-cal form)`` pairs of the §2.6-2.7 chain — the cheap,
    display-only projection of :func:`derive_spmd` that the pipeline's
    `substitute-views` pass records in its trace notes."""
    return [(s.rule, s.form) for s in derive_spmd(clause, decomps).steps]


def _guard_ok(clause: Clause, idx, env) -> bool:
    return clause.guard is None or bool(clause.guard.eval(idx, env))


def derive_spmd(
    clause: Clause, decomps: Dict[str, Decomposition]
) -> SPMDDerivation:
    """Build the executable derivation chain for a 1-D ``//`` clause."""
    if clause.ordering is not Ordering.PAR:
        raise ValueError("the Eq. (3) derivation applies to // clauses")
    if clause.domain.dim != 1:
        raise ValueError("the paper's derivation is presented for the "
                         "canonical 1-D clause")
    imin, imax = clause.domain.bounds.scalar()
    dA = decomps[clause.lhs.name]
    f = clause.lhs.scalar_func()
    reads = [(r, decomps[r.name], r.scalar_func()) for r in clause.reads()]
    pmax = dA.pmax
    A = clause.lhs.name

    read_forms = ", ".join(f"[{g.name}]({r.name})" for r, _d, g in reads)
    d = SPMDDerivation(clause, decomps)

    # -- step 1: canonical clause (Eq. 1) --------------------------------
    def run_canonical(env: Env) -> np.ndarray:
        return evaluate_clause(clause, env)[A]

    d.steps.append(DerivationStep(
        "canonical (Eq. 1)",
        f"∆(i ∈ ({imin}:{imax})) // [{f.name}]{A} := Expr({read_forms})",
        run_canonical,
    ))

    # -- helper: machine images -------------------------------------------
    def make_images(env: Env) -> Dict[str, List[np.ndarray]]:
        images: Dict[str, List[np.ndarray]] = {}
        for name, dec in decomps.items():
            if name not in env:
                continue
            arrs = [np.zeros(max(dec.local_size(p), 1)) for p in range(pmax)]
            for i in range(dec.n):
                p, l = dec.place(i)
                arrs[p][l] = env[name][i]
            images[name] = arrs
        return images

    def gather_image(images, name: str, dec: Decomposition) -> np.ndarray:
        out = np.zeros(dec.n)
        for i in range(dec.n):
            p, l = dec.place(i)
            out[i] = images[name][p][l]
        return out

    def eval_rhs_on_images(images, idx):
        # element-wise evaluation with every read served from its image
        values = {}
        for r, dec, g in reads:
            p, l = dec.place(g(idx[0]))
            values[id(r)] = images[r.name][p][l]
        return eval_fetched(clause.rhs, idx, values)

    def guard_on_images(images, idx) -> bool:
        if clause.guard is None:
            return True
        values = {}
        for r, dec, g in reads:
            p, l = dec.place(g(idx[0]))
            values[id(r)] = images[r.name][p][l]
        return bool(eval_fetched(clause.guard, idx, values))

    # -- step 2+3: substitution and contraction (Eq. 2) --------------------
    def run_contracted(env: Env) -> np.ndarray:
        images = make_images(env)
        pending = []
        for i in range(imin, imax + 1):
            idx = (i,)
            if not guard_on_images(images, idx):
                continue
            pending.append((dA.place(f(i)), eval_rhs_on_images(images, idx)))
        for (p, l), v in pending:
            images[A][p][l] = v
        return gather_image(images, A, dA)

    sub_reads = ", ".join(
        f"[proc_{r.name}({g.name}), local_{r.name}({g.name})]{r.name}'"
        for r, _dec, g in reads
    )
    d.steps.append(DerivationStep(
        "substitute + contract (Eq. 2)",
        f"∆(i ∈ ({imin}:{imax})) // [proc_{A}({f.name}), "
        f"local_{A}({f.name})]{A}' := Expr({sub_reads})",
        run_contracted,
    ))

    # -- step 4+5: renaming and interchange (Eq. 3) -------------------------
    def run_spmd_form(env: Env) -> np.ndarray:
        images = make_images(env)
        pending = []
        for p in range(pmax):  # ∆(p ∈ (0:pmax-1)) — the node programs
            for i in range(imin, imax + 1):
                if dA.proc(f(i)) != p:  # the migrated predicate
                    continue
                idx = (i,)
                if not guard_on_images(images, idx):
                    continue
                pending.append(
                    ((p, dA.local(f(i))), eval_rhs_on_images(images, idx))
                )
        for (p, l), v in pending:
            images[A][p][l] = v
        return gather_image(images, A, dA)

    d.steps.append(DerivationStep(
        "rename + interchange (Eq. 3)",
        f"∆(p ∈ (0:{pmax - 1})) // ∆(i ∈ ({imin}:{imax} | "
        f"proc_{A}({f.name}) = p)) // [p, local_{A}({f.name})]{A}' := "
        f"Expr({sub_reads})",
        run_spmd_form,
    ))

    # -- step 6: data retrieval split (§2.7) ---------------------------------
    def run_retrieval(env: Env) -> np.ndarray:
        images = make_images(env)
        fetches = 0
        pending = []
        for p in range(pmax):
            for i in range(imin, imax + 1):
                if dA.proc(f(i)) != p:
                    continue
                idx = (i,)
                values = {}
                for r, dec, g in reads:
                    q, l = dec.place(g(i))
                    if q != p:
                        fetches += 1  # fetch(proc_B(g(i)), local_B(g(i)))
                    values[id(r)] = images[r.name][q][l]
                if clause.guard is not None and not eval_fetched(
                    clause.guard, idx, values
                ):
                    continue
                pending.append(
                    ((p, dA.local(f(i))), eval_fetched(clause.rhs, idx, values))
                )
        for (p, l), v in pending:
            images[A][p][l] = v
        return gather_image(images, A, dA)

    fetch_reads = ", ".join(
        f"(if proc_{r.name}({g.name}) = p then [local_{r.name}({g.name})]"
        f"{r.name}_L else fetch(proc_{r.name}({g.name}), "
        f"local_{r.name}({g.name})))"
        for r, _dec, g in reads
    )
    d.steps.append(DerivationStep(
        "retrieval split (§2.7)",
        f"∆(p ∈ (0:{pmax - 1})) // ∆(i ∈ ({imin}:{imax} | "
        f"proc_{A}({f.name}) = p)) // [local_{A}({f.name})]{A}_L := "
        f"Expr({fetch_reads})",
        run_retrieval,
    ))

    return d
