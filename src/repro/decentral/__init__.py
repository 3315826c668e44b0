"""Master-less (decentralized) chunk self-scheduling substrate.

The master--slave protocol of the paper serializes every scheduling
decision through one PE.  This package removes the master from the
dispatch path, following the Distributed Chunk Calculation Approach:
each scheme's chunk size is a *pure function* of how many iterations
have been scheduled, so a worker that atomically fetch-and-adds a
shared counter can derive its own interval with local arithmetic.

Three layers, mirroring the repo's master-based stack:

* :mod:`repro.core.kernel` -- the lockstep chunk calculator for
  SS/CSS/GSS/TSS/FSS/FISS/TFSS, reading the same formula the stateful
  schedulers in :mod:`repro.core` drive;
* :mod:`~repro.decentral.counter` + :mod:`~repro.decentral.executor`
  -- a real ``multiprocessing`` runtime over a SIGKILL-safe flock'd
  counter (plus a leased, hierarchical MPI+MPI-style mode);
* :mod:`~repro.decentral.sim_engine` -- a discrete-event contention
  model where the counter, not a master FIFO, is the serialized
  resource.
"""

from ..core.kernel import (
    CALCULATORS,
    DECENTRAL_SCHEMES,
    ChunkCalculator,
    chunk_size,
    make_calculator,
)
from .counter import LeasedCounter, SharedCounter
from .executor import (
    REPAIR_LANE,
    CounterChassis,
    DecentralResult,
    decentral_worker_main,
    run_decentral,
)
from .sim_engine import (
    DEFAULT_ATOMIC_OP_COST,
    DecentralSimulation,
    simulate_decentral,
)

__all__ = [
    "CALCULATORS",
    "DECENTRAL_SCHEMES",
    "DEFAULT_ATOMIC_OP_COST",
    "REPAIR_LANE",
    "ChunkCalculator",
    "CounterChassis",
    "DecentralResult",
    "DecentralSimulation",
    "LeasedCounter",
    "SharedCounter",
    "chunk_size",
    "decentral_worker_main",
    "make_calculator",
    "run_decentral",
    "simulate_decentral",
]
