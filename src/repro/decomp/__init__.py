"""Data decompositions (paper Sections 2.6, 3.2, Fig. 2).

Every decomposition is a pair ``(proc, local)`` of total functions placing
each global index on a (processor, local-slot) pair — the view the paper
substitutes for a data structure to obtain SPMD programs.
"""

from .base import Decomposition
from .block import Block
from .blockscatter import BlockScatter
from .dynamic import RedistributionPlan, Transfer, plan_redistribution
from .multidim import Collapsed, GridDecomposition
from .replicated import Replicated, SingleOwner
from .scatter import Scatter
from .spec import SpecError, parse_distribution, parse_spec

__all__ = [
    "Decomposition",
    "Block",
    "BlockScatter",
    "Scatter",
    "SingleOwner",
    "Replicated",
    "Collapsed",
    "GridDecomposition",
    "RedistributionPlan",
    "Transfer",
    "plan_redistribution",
    "parse_spec",
    "parse_distribution",
    "SpecError",
]
