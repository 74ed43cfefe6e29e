"""The repo's one benchmark: five workloads, end-to-end metrics gated by
``BENCHMARK.json``, per-layer spans recorded from outside ``src/``.

Run it with ``python3 benchmarks/ledger/run.py`` (the command in
``BENCHMARK.json``) or ``PYTHONPATH=src python -m benchmarks.ledger``;
``README.md`` in this directory has the metric glossary, the workload
table and the A/B procedure.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def declared() -> dict:
    """``BENCHMARK.json``: the one definition of names, units, bounds."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)
