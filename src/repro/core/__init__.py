"""Loop self-scheduling schemes -- the paper's core contribution.

Simple schemes (paper Sec. 2): S, SS, CSS(k), GSS(k), TSS, FSS, FISS and
the new TFSS (Sec. 4).  Distributed schemes (Sec. 3 & 6): DTSS, DFSS,
DFISS, DTFSS, built on the ACP load model.  Tree Scheduling lives in
:mod:`repro.core.tree` (decentralized, driven by its own engine).
"""

from .acp import CLASSIC_ACP, IMPROVED_ACP, AcpModel
from .base import ChunkAssignment, Scheduler, SchemeError, WorkerView, drain
from .chunk import ChunkScheduler, PureScheduler
from .distributed import (
    DistributedFactoringScheduler,
    DistributedFixedIncreaseScheduler,
    DistributedSchedulerBase,
    DistributedTrapezoidFactoringScheduler,
    DistributedTrapezoidScheduler,
)
from .factoring import FactoringScheduler, WeightedFactoringScheduler
from .fixed_increase import FixedIncreaseScheduler, fiss_parameters
from .guided import GuidedScheduler
from .kernel import (
    CALCULATORS,
    ChunkCalculator,
    ChunkLadder,
    evaluate_ladder,
    make_calculator,
)
from .registry import (
    DISTRIBUTED_SCHEMES,
    SCHEMES,
    SIMPLE_SCHEMES,
    make,
    names,
    register,
)
from .static_ import BlockCyclicScheduler, StaticScheduler, weighted_block_sizes
from .tfss import TrapezoidFactoringScheduler, tfss_stage_chunks
from .trapezoid import TrapezoidParams, TrapezoidScheduler, nominal_tss_chunks
from .tree import TreePartition, partner_order

__all__ = [
    "AcpModel",
    "CLASSIC_ACP",
    "IMPROVED_ACP",
    "ChunkAssignment",
    "Scheduler",
    "SchemeError",
    "WorkerView",
    "drain",
    "ChunkScheduler",
    "PureScheduler",
    "GuidedScheduler",
    "TrapezoidParams",
    "TrapezoidScheduler",
    "nominal_tss_chunks",
    "FactoringScheduler",
    "WeightedFactoringScheduler",
    "FixedIncreaseScheduler",
    "fiss_parameters",
    "TrapezoidFactoringScheduler",
    "tfss_stage_chunks",
    "StaticScheduler",
    "BlockCyclicScheduler",
    "weighted_block_sizes",
    "DistributedSchedulerBase",
    "DistributedTrapezoidScheduler",
    "DistributedFactoringScheduler",
    "DistributedFixedIncreaseScheduler",
    "DistributedTrapezoidFactoringScheduler",
    "TreePartition",
    "partner_order",
    "ChunkCalculator",
    "ChunkLadder",
    "CALCULATORS",
    "make_calculator",
    "evaluate_ladder",
    "SCHEMES",
    "SIMPLE_SCHEMES",
    "DISTRIBUTED_SCHEMES",
    "make",
    "names",
    "register",
]
