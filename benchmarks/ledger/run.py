"""Script entry of the ledger — the command in ``BENCHMARK.json``.

Puts the checkout root and ``src/`` on the import path (in place of this
script's own directory, whose module names must not shadow anything) and
hands over to :mod:`benchmarks.ledger.cli`; ``python -m benchmarks.ledger``
with ``PYTHONPATH=src`` is the same command.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[0] = str(ROOT)
sys.path.insert(0, str(ROOT / "src"))

from benchmarks.ledger.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
