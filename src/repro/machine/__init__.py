"""Simulated parallel machines (paper Sections 2.9-2.10; see DESIGN.md
for the substitution rationale — this stands in for physical shared- and
distributed-memory hardware)."""

from .calibrate import MachineDescription, calibrate, load_machine
from .channels import LatencyModel, Message, Network
from .costmodel import (
    ETHERNET_CLUSTER,
    HYPERCUBE,
    SHARED_BUS,
    CostModel,
    calibrated_cost_model,
    default_cost_model,
)
from .distributed import DistributedMachine, NodeContext
from .memory import LocalMemory, gather_global, scatter_global
from .scheduler import (
    Barrier,
    DeadlockError,
    Irecv,
    Probe,
    Recv,
    RecvFuture,
    TraceEvent,
    Yield,
    run_spmd,
)
from .trace import activity_spans, overlap_factor, render_timeline
from .shared import SharedMachine
from .stats import MachineStats, NodeStats

__all__ = [
    "Network",
    "Message",
    "LatencyModel",
    "CostModel",
    "ETHERNET_CLUSTER",
    "HYPERCUBE",
    "SHARED_BUS",
    "MachineDescription",
    "calibrate",
    "calibrated_cost_model",
    "default_cost_model",
    "load_machine",
    "LocalMemory",
    "scatter_global",
    "gather_global",
    "Recv",
    "Irecv",
    "Probe",
    "RecvFuture",
    "Barrier",
    "Yield",
    "DeadlockError",
    "run_spmd",
    "TraceEvent",
    "activity_spans",
    "overlap_factor",
    "render_timeline",
    "DistributedMachine",
    "NodeContext",
    "SharedMachine",
    "MachineStats",
    "NodeStats",
]
