"""Generated redistribution code (dynamic decompositions, paper §1/§5).

Turns a :class:`~repro.decomp.dynamic.RedistributionPlan` (keys) into
SPMD node programs for the distributed machine: every node sends one
coalesced message per destination — :meth:`Region.take` of its old
buffer, in ascending global order — and applies its stay (from the old
buffer, a shadow copy) and each received payload with one
:meth:`Region.put` each.

This is the automation the paper's introduction asks for: redistribution
derived entirely from the two decomposition specifications, never written
into the program text.
"""

from __future__ import annotations

from typing import Generator

from ..decomp.base import Decomposition
from ..decomp.dynamic import RedistributionPlan, plan_redistribution
from ..machine.distributed import DistributedMachine, NodeContext
from ..pipeline.region import Key, Region, klen

__all__ = ["make_redistribution_program", "run_redistribution"]


def _slots(key: Key) -> Region:
    """One 1-D buffer's slots as a region over as many lanes."""
    return Region((key,), (0,), (klen(key),))


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

        # Sends (a message is a copy, not a view of node memory), then
        # the stay and one receive per source, in source order.
        moves = sorted(plan.moves.items())
        for (src, q), (_g, sl, _dl) in moves:
            if src == p and q != p:
                ctx.send(q, ("redist", name), _slots(sl).take(old).copy())
        for (src, q), (_g, sl, dl) in moves:
            if q == p:
                payload = _slots(sl).take(old) if src == p else \
                    ctx.note_received((yield ctx.recv(src, ("redist", name))))
                _slots(dl).put(new, payload)
                ctx.stats.local_updates += klen(dl)

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
