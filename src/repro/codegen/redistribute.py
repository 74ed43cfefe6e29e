"""Generated redistribution code (dynamic decompositions, paper §1/§5).

Turns a :class:`~repro.decomp.dynamic.RedistributionPlan` into SPMD node
programs for the distributed machine: every node packs one message per
destination (coalesced — not one message per element), receives one
message per source, and applies its intra-node moves from a shadow copy
(so overlapping src/dst slots cannot clobber each other).

This is the automation the paper's introduction asks for: redistribution
derived entirely from the two decomposition specifications, never written
into the program text.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Tuple

import numpy as np

from ..decomp.base import Decomposition
from ..decomp.dynamic import RedistributionPlan, plan_redistribution
from ..machine.distributed import DistributedMachine, NodeContext

__all__ = ["make_redistribution_program", "run_redistribution"]


def make_redistribution_program(
    plan: RedistributionPlan, name: str, ctx: NodeContext
) -> Generator:
    """Node program moving array *name* from ``plan.src`` to ``plan.dst``."""

    def program() -> Generator:
        p = ctx.p
        old = ctx.mem[name]

        # The destination-layout buffer (node memory: zeroed, leased).
        new = ctx.mem.alloc(name, plan.dst.local_size(p),
                            dtype=old.dtype if old.size else float)

        # Pack and send one coalesced message per destination processor.
        out_pairs = sorted(
            q for (src, q) in plan.messages if src == p
        )
        for q in out_pairs:
            triples = plan.messages[(p, q)]
            payload = np.array([old[sl] for (sl, _dl, _gi) in triples])
            ctx.send(q, ("redist", name), payload)

        # Intra-node moves (from the old buffer — it is the shadow copy).
        for sl, dl in plan.stay.get(p, []):
            new[dl] = old[sl]
            ctx.stats.local_updates += 1

        # Receive one message per source processor; slot order is the
        # sender's triple order, mirrored here from the same plan.
        in_pairs = sorted(src for (src, q) in plan.messages if q == p)
        for src in in_pairs:
            triples = plan.messages[(src, p)]
            payload = yield ctx.recv(src, ("redist", name))
            ctx.note_received(payload)
            for (_sl, dl, _gi), value in zip(triples, payload):
                new[dl] = value
                ctx.stats.local_updates += 1

        yield ctx.barrier()

    return program()


def run_redistribution(
    machine: DistributedMachine, name: str, new_dec: Decomposition
) -> RedistributionPlan:
    """Redistribute the placed array *name* on *machine* to *new_dec*.

    Returns the plan (for message/volume statistics); the machine's
    decomposition registry is updated so ``collect`` keeps working.
    """
    old_dec = machine.decomposition(name)
    plan = plan_redistribution(old_dec, new_dec)
    machine.run(lambda ctx: make_redistribution_program(plan, name, ctx))
    machine.decomps[name] = new_dec
    return plan
