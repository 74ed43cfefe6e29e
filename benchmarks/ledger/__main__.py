"""``python -m benchmarks.ledger`` (with ``src`` on ``PYTHONPATH``)."""

import sys

from .cli import main

sys.exit(main())
