"""Master-less multiprocessing runtime: counter, shards, repair.

The decentral counterpart of :mod:`repro.runtime.executor`.  There is
no master process in the dispatch path: each worker loops

    1. ``i = counter.fetch_add(1)``      (or a group-lease claim),
    2. ``start, stop = calc.interval(i)``  (pure local arithmetic),
    3. execute, append the round's record -- its claim wait, compute
       seconds, interval, ordinal ``i``, counter and payload -- to its
       own shard file (one write), go to 1,

until a fetched ordinal falls beyond ``calc.n_chunks`` (that dry
claim is booked too).  The parent only spawns processes, waits, and
merges shards -- coordination-free until the very end.

Fault story (the counter side is in :mod:`repro.decentral.counter`):

* a worker SIGKILLed mid-chunk leaves a shard whose last record may be
  torn; the merge stops that shard at the first undecodable record, so
  a half-written chunk counts as *not executed*;
* exactly-once comes from the merge, not the dispatch: records are
  deduped by chunk ordinal (first wins -- duplicates can only carry
  identical intervals and, for deterministic workloads, identical
  payloads, because the calculators are pure);
* ordinals claimed but never recorded (killed between fetch and
  flush, or lost with a dead group's lease) appear as holes in
  ``[0, n_chunks)``; the parent re-executes them serially after the
  run -- repair rides *off* the dispatch critical path, unlike the
  master runtime where the master requeues mid-run.

:func:`run_decentral` accepts a chaos :class:`FaultPlan` directly:
:class:`CounterChassis` runs the workers on the shared
:mod:`repro.runtime.chassis` and maps *stall* onto "lock the global
counter" for the stall's window (the counter, not a master FIFO, is
the serialized resource here).  The parent's wait loop fires the
fault script and blocks on the running incarnations' sentinels until
one exits or the next action is due: no timer turns it.
"""

from __future__ import annotations

import dataclasses
import os
from multiprocessing.connection import wait
from typing import Any, Optional, Sequence

import numpy as np

from ..chaos.plan import FaultPlan
from ..core.kernel import ChunkCalculator, make_calculator
from ..obs import ObsEvent
from ..runtime.chassis import (Clock, ProcessChassis, WorkerCall, WorkerStep,
                               assemble_results, shard_writer)
from ..runtime.config import RuntimeConfig
from ..runtime.worker import WorkerSpec, pad_specs
from ..simulation.metrics import WorkerMetrics
from ..workloads import Workload
from .counter import LeasedCounter, SharedCounter

__all__ = [
    "DecentralResult",
    "run_decentral",
    "decentral_worker_main",
    "CounterChassis",
]

#: Synthetic "worker id" the parent's repair pass executes under.
REPAIR_LANE = -1

#: Event-source tag for the unified observability stream.
_SRC = "runtime.decentral"


@dataclasses.dataclass
class DecentralResult(object):
    """Outcome of one master-less run (duck-compatible with RunResult).

    ``chunks``/``results``/``scheme`` satisfy
    :func:`repro.verify.audit_run`; the extra fields expose what the
    substrate is about: ``global_ops`` counts fetch-and-adds on the
    global counter, ``local_ops`` group-local claims (hierarchical
    mode), ``recovered`` the chunks re-executed by the repair pass.
    ``stats`` (each worker's books) and both op counts come from every
    whole round record of every incarnation.
    """

    scheme: str
    elapsed: float
    results: Optional[np.ndarray]
    stats: dict[int, WorkerMetrics]
    chunks: list[tuple[int, int, int]]
    n_chunks: int
    global_ops: int = 0
    local_ops: int = 0
    recovered: int = 0
    group_size: Optional[int] = None

    @property
    def total_chunks(self) -> int:
        return len(self.chunks)


def decentral_worker_main(
    worker_id: int,
    workload: Workload,
    calc: ChunkCalculator,
    counter,
    shard_path: str,
    spec: Optional[WorkerSpec] = None,
    collect_results: bool = True,
    delays: Optional[Sequence[tuple[float, float]]] = None,
    emit_events: bool = False,
    clock: Optional[Clock] = None,
) -> None:
    """Claim/compute/record loop (process target; exits when dry).

    ``counter`` is a :class:`SharedCounter` (flat) or
    :class:`LeasedCounter` (hierarchical).  Each claim is one
    ``("round", wait, compute, start, stop, index, refilled, payload,
    t)`` record (:func:`~repro.runtime.chassis.shard_writer`), written
    before the next claim, so anything this process *recorded* survives
    its own SIGKILL: ``refilled`` says the claim went to the global
    counter, ``t`` (on ``clock``, the run's one clock) stamps its
    chunk's ``result`` event, and the dry claim has no interval.

    ``emit_events`` interleaves unified observability events (source
    ``runtime.decentral``) into the shard stream as ``("event", row)``
    records; the parent replays them into its collector at merge time.
    """
    spec = spec or WorkerSpec()
    n = calc.n_chunks
    leased = isinstance(counter, LeasedCounter)
    with shard_writer(shard_path) as append:
        step = WorkerStep(
            workload, worker_id, spec.slowdown, delays, _SRC,
            append if emit_events else None, clock,
        )
        now = step.clock.now
        while True:
            step.serve_delays()
            step.emit("request")
            t0 = now()
            if leased:
                index, refilled = counter.claim()
            else:
                index = counter.fetch_add(1)
                refilled = True
            waited = now() - t0
            step.emit(
                "fetch-add", at=t0, value=waited,
                detail="global" if refilled else "local",
            )
            if index >= n:
                append(("round", waited, 0.0, None, None, index,
                        refilled, None, None))
                step.emit("terminate")
                break
            start, stop = calc.interval(index)
            payload, seconds = step.compute(
                start, stop,
                calc.stage_of(index) if emit_events else None,
            )
            append((
                "round", waited, seconds, start, stop, index, refilled,
                payload if collect_results else None, now(),
            ))
    counter.close()


class CounterChassis(ProcessChassis):
    """The counter substrate's processes: no pipe, a shard per
    incarnation, and the counter files they all fetch-and-add on.

    A plan *stall* locks the global counter from its start to its end:
    every claim in the system queues behind the lock, which is
    precisely the decentral meaning of "the dispatch resource
    stalled".
    """

    def __init__(
        self,
        workload: Workload,
        specs: Sequence[WorkerSpec],
        calc: ChunkCalculator,
        group_size: Optional[int],
        lease: int,
        collect_results: bool,
        **chassis: Any,
    ) -> None:
        super().__init__(len(specs), **chassis)
        self.workload = workload
        self.specs = specs
        self.calc = calc
        self.group_size = group_size
        self.lease = lease
        self.collect_results = collect_results
        self.counter_path = os.path.join(self.workdir, "counter")
        self.group_paths: Optional[list[str]] = None
        self.counter = SharedCounter(self.counter_path)

    def start(self) -> dict[int, Any]:
        SharedCounter.create(self.counter_path, 0)
        if self.group_size is not None:
            n_groups = -(-self.n_workers // self.group_size)
            self.group_paths = []
            for g in range(n_groups):
                path = os.path.join(self.workdir, f"group-{g:03d}")
                LeasedCounter.create(
                    path, self.counter, self.lease, self.calc.n_chunks,
                )
                self.group_paths.append(path)
        return super().start()

    def _worker_call(self, wid: int) -> tuple[WorkerCall, Any, Any]:
        # A fresh (picklable) counter handle for the worker.
        counter: Any = SharedCounter(self.counter_path)
        if self.group_paths is not None:
            counter = LeasedCounter(
                self.group_paths[wid // self.group_size], counter,
                self.lease, self.calc.n_chunks,
            )
        args = (wid, self.workload, self.calc, counter)
        return (decentral_worker_main, args, {
            "spec": self.specs[wid],
            "collect_results": self.collect_results,
        }), None, None

    def _freeze(self, frozen: bool) -> None:
        if frozen:
            self.counter.lock()
        else:
            self.counter.unlock()
            # lock() opened a descriptor: later forks must not inherit it.
            self.counter.close()


def run_decentral(
    scheme: str,
    workload: Workload,
    n_workers: int,
    *,
    specs: Optional[Sequence[WorkerSpec]] = None,
    group_size: Optional[int] = None,
    lease: int = 8,
    collect_results: bool = True,
    config: Optional[RuntimeConfig] = None,
    plan: Optional[FaultPlan] = None,
    time_scale: float = 1.0,
    stress_size: int = 200,
    collector=None,
    **scheme_kwargs,
) -> DecentralResult:
    """Execute ``workload`` with no master in the dispatch path.

    ``group_size`` switches on hierarchical mode: workers are grouped
    consecutively (``wid // group_size``), each group shares a local
    counter that leases ``lease`` ordinals at a time from the global
    one.  ``plan`` injects faults via :class:`CounterChassis`; plan
    times are seconds on the run's clock (pre-scaled by ``time_scale``
    as in ``run_parallel``).

    The merged result is bit-identical to
    ``workload.execute_serial()`` for every decentralizable scheme --
    chunk boundaries are pure functions of the fetched ordinal, so
    claim order cannot change the tiling.
    """
    specs = pad_specs(specs, n_workers)
    if group_size is not None and not 1 <= group_size <= n_workers:
        raise ValueError(
            f"group_size must be in [1, {n_workers}], got {group_size}"
        )
    calc = make_calculator(scheme, workload.size, n_workers,
                           **scheme_kwargs)
    n = calc.n_chunks  # warms the ordinal table before pickling
    with CounterChassis(
        workload, specs, calc, group_size, lease, collect_results,
        plan=plan, time_scale=time_scale, stress_size=stress_size,
        config=config, collector=collector,
    ) as chassis:
        obs, clock = chassis.obs, chassis.clock
        if n > 0:
            chassis.start()
            while True:
                chassis.fire()  # a restart joins the sentinels below
                running = chassis.running()
                if not running and not chassis.expects_more():
                    break
                # One list for the check and the wait: an exit between
                # the two leaves a ready sentinel, never an empty wait.
                for sentinel in wait(list(running), min(
                        chassis.due(), chassis.config.poll_timeout)):
                    running[sentinel].join()
            chassis.join()
        elapsed = clock.now()

        # -- merge: dedupe by ordinal, then repair the holes ------------
        #: ordinal -> (worker, start, stop, payload, t)
        completed: dict[int, tuple] = {}
        global_ops = 0
        local_ops = 0
        for shard_wid, record in chassis.merge():
            (_tag, _wait, _compute, start, stop, index, refilled,
             payload, t) = record
            global_ops += refilled
            local_ops += not refilled
            if start is not None:
                completed.setdefault(
                    index, (shard_wid, start, stop, payload, t)
                )
        missing = [i for i in range(n) if i not in completed]
        if obs:
            # Each chunk's result event, from the record that made it
            # durable (first wins, as for the chunk itself).
            for index in sorted(completed):
                wid_, start, stop, _payload, t = completed[index]
                obs.emit(ObsEvent(
                    "result", _SRC, t, wid_, start=start, stop=stop,
                    wall=clock.wall + t,
                ))
        for index in missing:
            start, stop = calc.interval(index)
            payload = (
                workload.execute(start, stop) if collect_results
                else None
            )
            completed[index] = (REPAIR_LANE, start, stop, payload, None)
            if obs:
                # The repair pass runs in the parent after the join;
                # both events carry the same post-run timestamp.
                t_rep = clock.now()
                for kind, detail in (("repair", "hole"),
                                     ("result", "repair")):
                    obs.emit(ObsEvent(
                        kind, _SRC, t_rep, REPAIR_LANE, start=start,
                        stop=stop, wall=clock.wall + t_rep, detail=detail,
                    ))
        chunks = [
            (completed[i][0], completed[i][1], completed[i][2])
            for i in sorted(completed)
        ]
        results = None
        if collect_results:
            results = assemble_results(
                [(completed[i][1], completed[i][3])
                 for i in sorted(completed)]
            )
        return DecentralResult(
            scheme=calc.scheme,
            elapsed=elapsed,
            results=results,
            stats=chassis.books,
            chunks=chunks,
            n_chunks=n,
            global_ops=global_ops,
            local_ops=local_ops,
            recovered=len(missing),
            group_size=group_size,
        )
