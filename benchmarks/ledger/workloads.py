"""The five workloads of the ledger, by name.

Why each exists is recorded in ``BENCHMARK.json`` (``why``) and at
length in ``README.md``.
"""

from __future__ import annotations

from typing import Dict

from .compilecold import CompileCold
from .servemixed import ServeMixed
from .stencils import HaloSteps, OneshotPlace, TimeloopMp
from .workload import Config, Window, Workload

__all__ = ["Config", "Window", "Workload", "WORKLOADS"]

WORKLOADS: Dict[str, type] = {
    w.name: w for w in (OneshotPlace, HaloSteps, TimeloopMp, CompileCold,
                        ServeMixed)}
