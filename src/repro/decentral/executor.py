"""Master-less multiprocessing runtime: counter, shards, repair.

The decentral counterpart of :mod:`repro.runtime.executor`.  There is
no master process in the dispatch path: each worker loops

    1. ``i = counter.fetch_add(1)``      (or a group-lease claim),
    2. ``start, stop = calc.interval(i)``  (pure local arithmetic),
    3. execute, append ``(i, start, stop, payload)`` to its own shard
       file, flush, go to 1,

until a fetched ordinal falls beyond ``calc.n_chunks``.  The parent
only spawns processes, waits, and merges shards -- coordination-free
until the very end.

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
:mod:`repro.runtime.chassis` and maps *stall* onto "hold the global
counter's lock" (the counter, not a master FIFO, is the serialized
resource here).
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import threading
import time
from typing import Any, Optional, Sequence

import numpy as np

from ..chaos.plan import FaultPlan
from ..core.kernel import ChunkCalculator, make_calculator
from ..obs import ObsEvent
from ..runtime.chassis import (
    ProcessChassis,
    WorkerCall,
    WorkerStep,
    assemble_results,
)
from ..runtime.config import RuntimeConfig
from ..runtime.messages import WorkerStats
from ..runtime.worker import WorkerSpec, pad_specs
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
    """

    scheme: str
    elapsed: float
    results: Optional[np.ndarray]
    stats: dict[int, WorkerStats]
    chunks: list[tuple[int, int, int]]
    n_chunks: int
    global_ops: int = 0
    local_ops: int = 0
    recovered: int = 0
    group_size: Optional[int] = None

    @property
    def total_chunks(self) -> int:
        return len(self.chunks)


def _make_worker_counter(
    counter_path: str,
    group_paths: Optional[Sequence[str]],
    wid: int,
    group_size: Optional[int],
    lease: int,
    limit: int,
):
    """Fresh (picklable) counter handle for one worker."""
    shared = SharedCounter(counter_path)
    if group_paths is None:
        return shared
    return LeasedCounter(
        group_paths[wid // group_size], shared, lease, limit
    )


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
) -> None:
    """Claim/compute/record loop (process target; exits when dry).

    ``counter`` is a :class:`SharedCounter` (flat) or
    :class:`LeasedCounter` (hierarchical).  Every record is flushed
    before the next claim, so anything this process *recorded* survives
    its own SIGKILL (page cache, not process memory).

    ``emit_events`` interleaves unified observability events (source
    ``runtime.decentral``) into the shard stream as
    ``("event", event_dict)`` records; the parent replays them into its
    collector at merge time, deduping ``result`` events by interval
    alongside the chunk records themselves.
    """
    spec = spec or WorkerSpec()
    n = calc.n_chunks
    global_ops = 0
    local_ops = 0
    leased = isinstance(counter, LeasedCounter)
    with open(shard_path, "wb", buffering=0) as out:
        def dump(record: tuple) -> None:
            pickle.dump(record, out, protocol=pickle.HIGHEST_PROTOCOL)

        step = WorkerStep(
            workload, worker_id, spec.slowdown, delays, _SRC,
            (lambda ev: dump(("event", ev.to_dict())))
            if emit_events else None,
        )
        stats = step.stats
        while True:
            step.serve_delays()
            step.emit("request")
            t0 = time.perf_counter()
            if leased:
                index, refilled = counter.claim()
                global_ops += 1 if refilled else 0
                local_ops += 0 if refilled else 1
            else:
                index = counter.fetch_add(1)
                refilled = True
                global_ops += 1
            wait = time.perf_counter() - t0
            stats.wait_seconds += wait
            step.emit(
                "fetch-add", at=t0, value=wait,
                detail="global" if refilled else "local",
            )
            if index >= n:
                step.emit("terminate")
                break
            start, stop = calc.interval(index)
            payload = step.compute(
                start, stop,
                calc.stage_of(index) if emit_events else None,
            )
            dump((
                "chunk", index, start, stop,
                payload if collect_results else None,
            ))
            # After the chunk record: the result is durable now.
            step.emit("result", start=start, stop=stop)
        dump(("stats", worker_id, stats, global_ops, local_ops))
    counter.close()


def _read_shard(path: str) -> list[tuple]:
    """Decode a shard, stopping at the first torn (half-written) record."""
    records: list[tuple] = []
    with open(path, "rb") as handle:
        while True:
            try:
                records.append(pickle.load(handle))
            except EOFError:
                break
            except (pickle.UnpicklingError, AttributeError, ImportError,
                    IndexError, ValueError, TypeError, OSError):
                # A SIGKILL mid-write leaves a truncated/garbled tail;
                # everything before it decoded fine and stands.  This
                # tuple is the documented set of errors ``pickle.load``
                # raises on corrupt input (plus OSError for a torn
                # read); a genuine bug still propagates.
                break
    return records


class CounterChassis(ProcessChassis):
    """The counter substrate's processes: no pipe, a shard per
    incarnation, and the counter files they all fetch-and-add on.

    A plan *stall* is an exclusive hold on the global counter: with the
    counter locked, every claim in the system queues behind the hold,
    which is precisely the decentral meaning of "the dispatch resource
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
        self._holds: list[threading.Thread] = []

    def start(self) -> dict[int, Any]:
        SharedCounter.create(self.counter_path, 0)
        if self.group_size is not None:
            n_groups = -(-self.n_workers // self.group_size)
            self.group_paths = []
            for g in range(n_groups):
                path = os.path.join(self.workdir, f"group-{g:03d}")
                LeasedCounter.create(
                    path, SharedCounter(self.counter_path), self.lease,
                    self.calc.n_chunks,
                )
                self.group_paths.append(path)
        return super().start()

    def _worker_call(
        self, wid: int, incarnation: int
    ) -> tuple[WorkerCall, Any, Any]:
        counter = _make_worker_counter(
            self.counter_path, self.group_paths, wid, self.group_size,
            self.lease, self.calc.n_chunks,
        )
        kwargs = {
            "spec": self.specs[wid],
            "collect_results": self.collect_results,
            "delays": self.delays_for(wid, incarnation),
            "emit_events": bool(self.obs),
        }
        args = (
            wid, self.workload, self.calc, counter,
            self.shard_path(wid, ".pkl"),
        )
        return (decentral_worker_main, args, kwargs), None, None

    def _freeze(self, duration: float) -> None:
        def hold() -> None:
            SharedCounter(self.counter_path).hold(duration)

        thread = threading.Thread(target=hold, daemon=True)
        thread.start()
        self._holds.append(thread)

    def join(self) -> None:
        super().join()
        for thread in self._holds:
            thread.join(timeout=self.config.join_timeout)
        self._holds.clear()


def run_decentral(
    scheme: str,
    workload: Workload,
    n_workers: int,
    *,
    specs: Optional[Sequence[WorkerSpec]] = None,
    group_size: Optional[int] = None,
    lease: int = 8,
    collect_results: bool = True,
    mp_context: str = "fork",
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
    times are wall-clock seconds (pre-scaled by ``time_scale`` as in
    ``run_parallel``).

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
        mp_context=mp_context, config=config, collector=collector,
    ) as chassis:
        obs = chassis.obs
        wall0 = time.perf_counter()
        if n > 0:
            chassis.start()
            poll = min(chassis.config.poll_timeout, 0.02)
            while True:
                chassis.admissions()  # count restarts in
                if not chassis.alive() and not chassis.expects_more():
                    break
                time.sleep(poll)
            chassis.join()
        elapsed = time.perf_counter() - wall0

        # -- merge: dedupe by ordinal, then repair the holes ------------
        completed: dict[int, tuple[int, int, int, object]] = {}
        stats: dict[int, WorkerStats] = {}
        global_ops = 0
        local_ops = 0
        #: result events deduped by interval start (first wins), in
        #: lockstep with the chunk dedup: a chunk's start identifies its
        #: ordinal, and the same shard scan order decides both.
        result_events: dict[int, ObsEvent] = {}
        for shard_wid, path in chassis.shards():
            for record in _read_shard(path):
                if record[0] == "chunk":
                    _tag, index, start, stop, payload = record
                    completed.setdefault(
                        index, (shard_wid, start, stop, payload)
                    )
                elif record[0] == "stats":
                    _tag, wid, wstats, gops, lops = record
                    agg = stats.setdefault(wid, WorkerStats())
                    agg.compute_seconds += wstats.compute_seconds
                    agg.wait_seconds += wstats.wait_seconds
                    agg.chunks += wstats.chunks
                    agg.iterations += wstats.iterations
                    global_ops += gops
                    local_ops += lops
                elif record[0] == "event":
                    ev = ObsEvent.from_dict(record[1])
                    if ev.kind == "result":
                        result_events.setdefault(ev.start, ev)
                    else:
                        obs.emit(ev)
        missing = [i for i in range(n) if i not in completed]
        if obs:
            for index in sorted(completed):
                wid_, start, stop, _payload = completed[index]
                ev = result_events.get(start)
                if ev is None:
                    # Chunk record landed but the worker was killed
                    # before its result event: synthesize one at merge
                    # time so the stream still covers the interval.
                    ev = ObsEvent(
                        "result", _SRC, time.perf_counter() - wall0,
                        wid_, start=start, stop=stop,
                        wall=time.time(), detail="merge",
                    )
                obs.emit(ev)
        for index in missing:
            start, stop = calc.interval(index)
            payload = (
                workload.execute(start, stop) if collect_results
                else None
            )
            completed[index] = (REPAIR_LANE, start, stop, payload)
            if obs:
                # The repair pass runs in the parent after the join;
                # both events carry the same post-run timestamp.
                t_rep = time.perf_counter() - wall0
                obs.emit(ObsEvent(
                    "repair", _SRC, t_rep, REPAIR_LANE,
                    start=start, stop=stop, wall=time.time(),
                    detail="hole",
                ))
                obs.emit(ObsEvent(
                    "result", _SRC, t_rep, REPAIR_LANE,
                    start=start, stop=stop, wall=time.time(),
                    detail="repair",
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
            stats=stats,
            chunks=chunks,
            n_chunks=n,
            global_ops=global_ops,
            local_ops=local_ops,
            recovered=len(missing),
            group_size=group_size,
        )
