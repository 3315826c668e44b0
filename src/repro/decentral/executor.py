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

:func:`run_decentral` accepts a chaos :class:`FaultPlan` directly; the
:class:`DecentralChaosController` reuses the chaos runtime's driver
thread, mapping *stall* onto "hold the global counter's lock" (the
counter, not a master FIFO, is the serialized resource here).
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import shutil
import tempfile
import threading
import time
import multiprocessing as mp
from typing import Optional, Sequence

import numpy as np

from ..chaos.plan import ChaosError, FaultPlan
from ..chaos.runtime import ChaosController
from ..core.acp import IMPROVED_ACP
from ..core.kernel import ChunkCalculator, make_calculator
from ..obs import ObsEvent
from ..obs import resolve as _resolve_collector
from ..runtime.config import RuntimeConfig
from ..runtime.executor import assemble_results
from ..runtime.messages import WorkerStats
from ..runtime.worker import WorkerSpec, _execute_with_slowdown
from ..workloads import Workload
from .counter import LeasedCounter, SharedCounter

__all__ = [
    "DecentralResult",
    "run_decentral",
    "decentral_worker_main",
    "DecentralChaosController",
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
    ``("event", ordinal_or_None, event_dict)`` records; the parent
    replays them into its collector at merge time, deduping ``result``
    events by ordinal alongside the chunk records themselves.
    """
    spec = spec or WorkerSpec()
    n = calc.n_chunks
    stats = WorkerStats()
    global_ops = 0
    local_ops = 0
    born = time.perf_counter()
    pending_delays = sorted(delays) if delays else []
    di = 0
    leased = isinstance(counter, LeasedCounter)
    with open(shard_path, "wb", buffering=0) as out:
        def dump_event(kind: str, index: Optional[int] = None,
                       at: Optional[float] = None, **fields) -> None:
            t = (time.perf_counter() if at is None else at) - born
            ev = ObsEvent(
                kind, _SRC, t, worker_id, wall=time.time(), **fields
            )
            pickle.dump(("event", index, ev.to_dict()), out,
                        protocol=pickle.HIGHEST_PROTOCOL)

        while True:
            now = time.perf_counter() - born
            while di < len(pending_delays) and pending_delays[di][0] <= now:
                time.sleep(pending_delays[di][1])
                di += 1
            if emit_events:
                dump_event("request")
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
            if emit_events:
                dump_event(
                    "fetch-add", at=t0, value=wait,
                    detail="global" if refilled else "local",
                )
            if index >= n:
                if emit_events:
                    dump_event("terminate")
                break
            start, stop = calc.interval(index)
            t1 = time.perf_counter()
            payload = _execute_with_slowdown(
                workload, start, stop, spec.slowdown
            )
            duration = time.perf_counter() - t1
            stats.compute_seconds += duration
            stats.chunks += 1
            stats.iterations += stop - start
            if emit_events:
                dump_event(
                    "compute", at=t1, start=start, stop=stop,
                    stage=calc.stage_of(index), value=duration,
                )
            pickle.dump(
                (
                    "chunk", index, start, stop,
                    payload if collect_results else None,
                ),
                out,
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            if emit_events:
                # After the chunk record: the result is durable now.
                dump_event("result", index=index, start=start, stop=stop)
        pickle.dump(
            ("stats", worker_id, stats, global_ops, local_ops),
            out,
            protocol=pickle.HIGHEST_PROTOCOL,
        )
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


class DecentralChaosController(ChaosController):
    """Fault driver for the counter substrate.

    Reuses the chaos runtime's scripted thread (deaths via SIGKILL,
    restarts, spikes) but respawns *decentral* workers -- each restart
    gets a fresh incarnation with its own shard file -- and interprets
    master stalls as exclusive holds on the global counter: with the
    counter locked, every claim in the system queues behind the hold,
    which is precisely the decentral meaning of "the dispatch resource
    stalled".
    """

    def __init__(
        self,
        plan: FaultPlan,
        ctx,
        workload: Workload,
        specs: Sequence[WorkerSpec],
        config: RuntimeConfig,
        calc: ChunkCalculator,
        counter_path: str,
        group_paths: Optional[Sequence[str]],
        group_size: Optional[int],
        lease: int,
        shard_dir: str,
        collect_results: bool,
        stress_size: int = 200,
        collector=None,
        emit_events: bool = False,
    ) -> None:
        super().__init__(
            plan, ctx, workload, specs, distributed=False,
            acp_model=IMPROVED_ACP, config=config,
            stress_size=stress_size, collector=collector,
        )
        self.emit_events = emit_events
        self.calc = calc
        self.counter_path = counter_path
        self.group_paths = group_paths
        self.group_size = group_size
        self.lease = lease
        self.shard_dir = shard_dir
        self.collect_results = collect_results
        self._incarnation: dict[int, int] = {}
        self._holds: list[threading.Thread] = []

    def spawn_worker(self, wid: int, initial: bool):
        """One decentral worker incarnation; no pipe (returns None)."""
        incarnation = self._incarnation.get(wid, -1) + 1
        self._incarnation[wid] = incarnation
        shard = os.path.join(
            self.shard_dir, f"shard-{wid:03d}-{incarnation:02d}.pkl"
        )
        counter = _make_worker_counter(
            self.counter_path, self.group_paths, wid, self.group_size,
            self.lease, self.calc.n_chunks,
        )
        proc = self.ctx.Process(
            target=decentral_worker_main,
            args=(wid, self.workload, self.calc, counter, shard),
            kwargs={
                "spec": self.specs[wid],
                "collect_results": self.collect_results,
                # Message faults hit the original incarnation only, as
                # in the master-based chaos runtime.
                "delays": self.delays_for(wid) if initial else None,
                "emit_events": self.emit_events,
            },
            daemon=True,
        )
        return None, proc

    def _hold_counter(self, duration: float) -> None:
        self._emit("fault", value=duration, detail="stall")

        def hold() -> None:
            SharedCounter(self.counter_path).hold(duration)

        thread = threading.Thread(target=hold, daemon=True)
        thread.start()
        self._holds.append(thread)

    def _drive(self) -> None:
        # Same time-ordered script as the base class, plus stalls (the
        # base class leaves stalls to the master thread's on_tick; here
        # the counter hold *is* the stall).
        script = []
        for ev in self.plan.deaths:
            script.append((ev.at, "death", ev))
        for ev in self.plan.restarts:
            script.append((ev.at, "restart", ev))
        for ev in self.plan.spikes:
            script.append((ev.at, "spike", ev))
        for ev in self.plan.stalls:
            script.append((ev.at, "stall", ev))
        script.sort(key=lambda item: item[0])
        spike_ends: list[float] = []
        for at, kind, ev in script:
            if not self._sleep_until(at):
                break
            if kind == "death":
                self._kill(ev.worker)
            elif kind == "restart":
                self._restart(ev.worker)
            elif kind == "stall":
                self._hold_counter(ev.duration)
            elif kind == "spike":
                self._spike(ev)
                spike_ends.append(ev.at + ev.duration)
        for end in sorted(spike_ends):
            if not self._sleep_until(end):
                break
        self._stress_stop.set()

    def shutdown(self) -> None:
        super().shutdown()
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
    one.  ``plan`` injects faults via
    :class:`DecentralChaosController`; plan times are wall-clock
    seconds (pre-scaled by ``time_scale`` as in ``run_chaos``).

    The merged result is bit-identical to
    ``workload.execute_serial()`` for every decentralizable scheme --
    chunk boundaries are pure functions of the fetched ordinal, so
    claim order cannot change the tiling.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if group_size is not None and not 1 <= group_size <= n_workers:
        raise ValueError(
            f"group_size must be in [1, {n_workers}], got {group_size}"
        )
    if plan is not None and plan.max_worker >= n_workers:
        raise ChaosError(
            f"fault plan targets worker {plan.max_worker} but the run "
            f"has {n_workers} workers"
        )
    if plan is not None and time_scale != 1.0:
        plan = plan.scaled(time_scale)
    specs = list(specs or [])
    while len(specs) < n_workers:
        specs.append(WorkerSpec())
    calc = make_calculator(scheme, workload.size, n_workers,
                           **scheme_kwargs)
    obs = _resolve_collector(collector)
    n = calc.n_chunks  # warms the ordinal table before pickling
    base = config or RuntimeConfig.from_env()
    config = dataclasses.replace(
        base, poll_timeout=min(base.poll_timeout, 0.25)
    )
    workdir = tempfile.mkdtemp(prefix="repro-decentral-")
    try:
        counter_path = os.path.join(workdir, "counter")
        SharedCounter.create(counter_path, 0)
        group_paths: Optional[list[str]] = None
        if group_size is not None:
            n_groups = -(-n_workers // group_size)
            group_paths = []
            for g in range(n_groups):
                path = os.path.join(workdir, f"group-{g:03d}")
                LeasedCounter.create(
                    path, SharedCounter(counter_path), lease, n
                )
                group_paths.append(path)

        ctx = mp.get_context(mp_context)
        controller: Optional[DecentralChaosController] = None
        procs: list[mp.process.BaseProcess] = []
        wall0 = time.perf_counter()
        if n > 0:
            if plan is not None:
                controller = DecentralChaosController(
                    plan, ctx, workload, specs, config, calc,
                    counter_path, group_paths, group_size, lease,
                    workdir, collect_results, stress_size=stress_size,
                    collector=collector, emit_events=bool(obs),
                )
                spawned = {}
                for wid in range(n_workers):
                    _pipe, proc = controller.spawn_worker(
                        wid, initial=True
                    )
                    spawned[wid] = proc
                t0 = time.monotonic()
                for proc in spawned.values():
                    proc.start()
                controller.start(t0, spawned)
            else:
                for wid in range(n_workers):
                    counter = _make_worker_counter(
                        counter_path, group_paths, wid, group_size,
                        lease, n,
                    )
                    shard = os.path.join(
                        workdir, f"shard-{wid:03d}-00.pkl"
                    )
                    proc = ctx.Process(
                        target=decentral_worker_main,
                        args=(wid, workload, calc, counter, shard),
                        kwargs={
                            "spec": specs[wid],
                            "collect_results": collect_results,
                            "emit_events": bool(obs),
                        },
                        daemon=True,
                    )
                    procs.append(proc)
                for proc in procs:
                    proc.start()
            poll = min(config.poll_timeout, 0.02)
            try:
                while True:
                    if controller is not None:
                        controller.admissions()  # count restarts in
                        procs = controller.processes
                    if not any(p.is_alive() for p in procs) and (
                        controller is None
                        or not controller.expects_more()
                    ):
                        break
                    time.sleep(poll)
            finally:
                if controller is not None:
                    controller.shutdown()
                for proc in (
                    controller.processes if controller else procs
                ):
                    proc.join(timeout=config.join_timeout)
                    if proc.is_alive():  # pragma: no cover - hang guard
                        proc.terminate()
        elapsed = time.perf_counter() - wall0

        # -- merge: dedupe by ordinal, then repair the holes ------------
        completed: dict[int, tuple[int, int, int, object]] = {}
        stats: dict[int, WorkerStats] = {}
        global_ops = 0
        local_ops = 0
        #: result events deduped by ordinal (first wins), in lockstep
        #: with the chunk dedup: the same shard scan order decides both.
        result_events: dict[int, ObsEvent] = {}
        for name in sorted(os.listdir(workdir)):
            if not name.startswith("shard-"):
                continue
            for record in _read_shard(os.path.join(workdir, name)):
                if record[0] == "chunk":
                    _tag, index, start, stop, payload = record
                    completed.setdefault(
                        index, (int(name[6:9]), start, stop, payload)
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
                    _tag, index, evd = record
                    ev = ObsEvent.from_dict(evd)
                    if ev.kind == "result":
                        result_events.setdefault(index, ev)
                    elif obs:
                        obs.emit(ev)
        missing = [i for i in range(n) if i not in completed]
        if obs:
            for index in sorted(completed):
                ev = result_events.get(index)
                if ev is None:
                    # Chunk record landed but the worker was killed
                    # before its result event: synthesize one at merge
                    # time so the stream still covers the interval.
                    wid_, start, stop, _payload = completed[index]
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
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
