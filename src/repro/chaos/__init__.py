"""Seeded chaos engineering for both substrates.

One :class:`FaultPlan` -- worker fail-stop, restart/rejoin, message
delay/loss, master stalls, load spikes -- applies uniformly to the
discrete-event simulators (``simulate(..., chaos=plan)``,
``simulate_tree(..., chaos=plan)``) and to the real-process runtimes
(``run_parallel(..., plan=plan)``, ``run_decentral(..., plan=plan)``;
:mod:`repro.runtime.chassis` replays it).  The trace invariant auditor in
:mod:`repro.verify` checks that a faulty run still covered every
iteration exactly once; ``docs/fault_model.md`` documents the taxonomy
and the invariants.
"""

from .plan import (
    ChaosError,
    FaultEvent,
    FaultPlan,
    LoadSpike,
    MasterStall,
    MessageDelay,
    MessageLoss,
    WorkerDeath,
    WorkerRestart,
)
from .service import applicable_faults, inject_service_faults

__all__ = [
    "applicable_faults",
    "inject_service_faults",
    "ChaosError",
    "FaultEvent",
    "FaultPlan",
    "WorkerDeath",
    "WorkerRestart",
    "MessageDelay",
    "MessageLoss",
    "MasterStall",
    "LoadSpike",
]
