"""Deterministic discrete-event simulation of a heterogeneous
master--slave cluster: the stand-in for the paper's 9-workstation Sun
testbed (see DESIGN.md for the substitution argument)."""

from .cluster import ClusterSpec, NodeSpec
from .des import FastPathRefused
from .engine import (
    MasterSlaveSimulation,
    StarvationError,
    make_for_cluster,
    simulate,
)
from .events import EventQueue, SimulationError
from .loadgen import (
    ConstantLoad,
    LoadTrace,
    OverlayLoad,
    RandomLoad,
    StepLoad,
    integrate_compute,
)
from .metrics import ChunkRecord, SimResult, WorkerMetrics
from .tree_engine import TreeSimulation, simulate_tree

__all__ = [
    "ClusterSpec",
    "NodeSpec",
    "EventQueue",
    "SimulationError",
    "FastPathRefused",
    "StarvationError",
    "LoadTrace",
    "ConstantLoad",
    "StepLoad",
    "OverlayLoad",
    "RandomLoad",
    "integrate_compute",
    "WorkerMetrics",
    "ChunkRecord",
    "SimResult",
    "MasterSlaveSimulation",
    "simulate",
    "make_for_cluster",
    "TreeSimulation",
    "simulate_tree",
]
