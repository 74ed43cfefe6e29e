"""The simulated shared-memory machine (paper Section 2.9).

Shared-memory SPMD is simple: every processor can address every element
directly, so a clause becomes

    ``p := my_node; forall i in Modify_p do A[f(i)] := Expr(B[g(i)]); od;
    barrier;``

The simulation keeps one global environment; node programs are plain
callables executed phase by phase with a barrier between phases.  Because
``//`` clauses are independent (disjoint ``Modify_p`` writes under the
owner-computes rule), executing nodes in any order within a phase is
equivalent to true concurrency; reads-of-pre-state semantics are
preserved by double-buffering writes within a phase.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .stats import MachineStats

__all__ = ["SharedMachine", "SharedPhase"]

#: One phase of one node: (p, env, write_buffer, stats) -> None.  The node
#: reads from ``env`` (pre-state) and appends (name, index, value) writes
#: to the buffer; the machine commits the buffer at the phase barrier.
SharedPhase = Callable[[int, Dict[str, np.ndarray], List[Tuple[str, int, float]],
                        "MachineStats"], None]


class SharedMachine:
    """``pmax`` processors over one shared global environment."""

    def __init__(self, pmax: int, env: Dict[str, np.ndarray]):
        if pmax < 1:
            raise ValueError("pmax must be >= 1")
        self.pmax = pmax
        self.env = {k: np.asarray(v, dtype=np.float64) for k, v in env.items()}
        self.stats = MachineStats.for_nodes(pmax)

    def run_phase(self, phase: Callable[[int], List[Tuple[str, int, float]]]) -> None:
        """Execute one parallel phase: call ``phase(p)`` for every node
        against the shared pre-state, collect the write sets, then commit
        them at the barrier.

        Committing after all nodes ran models the ``forall … barrier``
        template: no node observes another node's writes within a phase.
        """
        with np.errstate(all="ignore"):  # the operator table's results
            buffers = [phase(p) for p in range(self.pmax)]
        for p, buf in enumerate(buffers):
            for name, idx, value in buf:
                self.env[name][idx] = value
                self.stats[p].local_updates += 1
            self.stats[p].barriers += 1

    def run_sequential_phase(
        self, phase: Callable[[int], List[Tuple[str, int, float]]],
        order: Sequence[int] | None = None,
    ) -> None:
        """Execute a ``•``-ordered phase: nodes run and commit in *order*
        (default 0..pmax-1), each observing earlier nodes' writes —
        the degenerate DOACROSS schedule."""
        with np.errstate(all="ignore"):
            for p in order if order is not None else range(self.pmax):
                for name, idx, value in phase(p):
                    self.env[name][idx] = value
                    self.stats[p].local_updates += 1

    def array(self, name: str) -> np.ndarray:
        return self.env[name]
