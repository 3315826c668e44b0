"""High-level runner: execute a workload on real worker processes.

:func:`run_parallel` is the runtime counterpart of
:func:`repro.simulation.simulate`: it spawns one OS process per worker,
drives the master loop in the calling process, reassembles piggy-backed
results into serial order, and reports wall-clock times.  With
``plan=`` it is the counterpart of ``simulate(..., chaos=plan)``: the
same :class:`~repro.chaos.FaultPlan`, replayed on the real processes
by the :mod:`~repro.runtime.chassis` both real substrates share.

Nondedicated mode: wrap a run in
:class:`~repro.runtime.chassis.BackgroundLoad`, the paper's stressor
(processes adding two random 1000x1000 matrices).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional, Sequence

import numpy as np

from ..chaos.plan import FaultPlan
from ..core import Scheduler, make
from ..core.acp import IMPROVED_ACP, AcpModel
from ..core.registry import DISTRIBUTED_SCHEMES, parse
from ..simulation.metrics import WorkerMetrics
from ..workloads import Workload
from .chassis import ProcessChassis, WorkerCall, assemble_results
from .config import RuntimeConfig
from .master import MasterHooks, master_loop
from .worker import WorkerSpec, pad_specs, worker_main

__all__ = ["RunResult", "PipeChassis", "run_parallel"]


@dataclasses.dataclass
class RunResult(object):
    """Outcome of one real parallel run (``stats``: each worker's books,
    :func:`~repro.runtime.chassis.worker_books`)."""

    scheme: str
    elapsed: float
    results: Optional[np.ndarray]
    stats: dict[int, WorkerMetrics]
    chunks: list[tuple[int, int, int]]
    requeued: int = 0

    @property
    def total_chunks(self) -> int:
        return len(self.chunks)


class PipeChassis(ProcessChassis, MasterHooks):
    """The master substrate's processes: one pipe per incarnation.

    Doubles as the master loop's :class:`MasterHooks`: the loop fires
    the fault script itself, a restarted incarnation's pipe is admitted
    into it, and a plan *stall* holds the master thread inside
    :meth:`fire`, so requests queue behind it exactly as in the
    simulator.
    """

    def __init__(
        self,
        workload: Workload,
        specs: Sequence[WorkerSpec],
        distributed: bool,
        acp_model: AcpModel,
        **chassis: Any,
    ) -> None:
        super().__init__(len(specs), **chassis)
        self.workload = workload
        self.specs = specs
        self.distributed = distributed
        self.acp_model = acp_model

    def _worker_call(self, wid: int) -> tuple[WorkerCall, Any, Any]:
        parent, child = self.ctx.Pipe()
        return (worker_main, (child, self.workload, wid), {
            "spec": self.specs[wid],
            "distributed": self.distributed,
            "acp_model": self.acp_model,
            "heartbeat_interval": self.config.heartbeat_interval,
        }), parent, child

    def __exit__(self, *exc: object) -> None:
        self.join()
        # Every incarnation's shard, SIGKILLed ones included.
        self.merge()
        super().__exit__(*exc)


def run_parallel(
    scheme: str | Scheduler,
    workload: Workload,
    n_workers: int,
    *,
    specs: Optional[Sequence[WorkerSpec]] = None,
    acp_model: AcpModel = IMPROVED_ACP,
    collect_results: bool = True,
    config: Optional[RuntimeConfig] = None,
    plan: Optional[FaultPlan] = None,
    time_scale: float = 1.0,
    stress_size: int = 200,
    collector=None,
    **scheme_kwargs,
) -> RunResult:
    """Run ``workload`` under ``scheme`` on ``n_workers`` processes.

    ``specs`` carries per-worker heterogeneity (slowdown, virtual power,
    static run-queue); omitted entries default to a plain worker.  A
    distributed scheme screens them under ``acp_model``, as the
    simulator does.
    Results are reassembled in iteration order, so
    ``np.array_equal(run.results, workload.execute_serial())`` holds for
    any scheme -- the runtime's core correctness property -- and for
    any ``plan``.

    ``plan`` injects faults while the loop runs (``docs/fault_model.md``
    has the per-fault semantics); its times are seconds on the run's
    clock (0 is the chassis's origin, taken before the first worker
    forks), pre-scaled by ``time_scale``, and its load spikes run
    ``stress_size``-sized matrix-add stressors.  Raises
    :class:`~repro.runtime.master.IncompleteRunError` if the plan kills
    every worker with no restart ahead (the runtime analogue of the
    simulator's all-dead ``SimulationError``).

    ``config`` tunes polling/heartbeat/deadline behaviour (defaults to
    ``RuntimeConfig()``).

    ``collector`` receives the unified observability stream: the
    master's events inline (source ``runtime.master``), the fault
    script's injections (source ``chaos``), plus each worker
    incarnation's shard of event records (source ``runtime.worker``),
    merged after the join -- see :mod:`repro.obs`.
    """
    specs = pad_specs(specs, n_workers)
    if isinstance(scheme, str):
        if parse(scheme)[0] in DISTRIBUTED_SCHEMES:
            # The master screens with the model the workers report by.
            scheme_kwargs.setdefault("acp_model", acp_model)
        scheduler = make(scheme, workload.size, n_workers, **scheme_kwargs)
    else:
        scheduler = scheme
    # The master process holds the workload (workers get copies); the
    # adaptive meta-scheduler scores its stages from it.
    scheduler.bind_workload(workload)
    meta = {
        wid: (spec.virtual_power, spec.run_queue)
        for wid, spec in enumerate(specs)
    }
    with PipeChassis(
        workload, specs, scheduler.distributed, acp_model,
        plan=plan, time_scale=time_scale, stress_size=stress_size,
        config=config, collector=collector,
    ) as chassis:
        master = master_loop(
            scheduler, chassis.start(), meta, config=config,
            hooks=chassis, collector=collector,
        )
        elapsed = chassis.clock.now()
    return RunResult(
        scheme=scheduler.name,
        elapsed=elapsed,
        results=(
            assemble_results(master.results) if collect_results else None
        ),
        stats=chassis.books,
        chunks=master.chunks,
        requeued=master.requeued,
    )
