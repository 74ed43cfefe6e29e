"""The nd names of the one placement.

:func:`repro.machine.memory.scatter_global` and
:func:`~repro.machine.memory.gather_global` place and collect 1-D and
grid decompositions alike; grid callers know them by these names.
"""

from .memory import gather_global as gather_global_nd
from .memory import scatter_global as scatter_global_nd

__all__ = ["scatter_global_nd", "gather_global_nd"]
