"""One real-process chassis: spawn, fault script, join and shards, once.

The wall-clock counterpart of :mod:`repro.simulation.des`.  Both real
substrates -- the master runtime (:func:`repro.runtime.run_parallel`)
and the counter runtime (:func:`repro.decentral.run_decentral`) -- run
their worker processes on a :class:`ProcessChassis`, which owns

* the multiprocessing context and the per-worker incarnation table;
* **the one spawn site** (:meth:`ProcessChassis.spawn`);
* one time-ordered **fault script** replaying a
  :class:`~repro.chaos.FaultPlan`, fired by the run's own wait loop
  (:meth:`ProcessChassis.fire` each turn, the wait bounded by
  :meth:`ProcessChassis.due`): *death* is a SIGKILL of the worker's
  current incarnation, *restart* a fresh incarnation under the same id,
  *spike* a :class:`BackgroundLoad` for the window, *stall* holds the
  caller inside :meth:`~ProcessChassis.fire` until it ends (overlapping
  stalls take their union) and calls the substrate's
  :meth:`~ProcessChassis._freeze` at either edge; message *delay* /
  *loss* travel to the worker as ``(at, extra)`` sleeps (a lost
  datagram and its retransmission look identical to the protocol: one
  late request).  An empty plan fires nothing, so a fault-free run is
  the same path;
* join-or-terminate, the run's scratch directory with one shard file
  per incarnation, and result assembly;
* **the shard format**: a worker appends each record to its shard as
  one length-framed pickle (:func:`shard_writer`), and the parent reads
  every whole record back after the join (:func:`read_shard`,
  :meth:`ProcessChassis.records`).  An observability event is the
  record ``("event", row)``, ``row`` the eleven
  :class:`~repro.obs.ObsEvent` fields; each served round is the record
  ``("round", wait, compute, start, stop, ...)``.  After the join
  :meth:`ProcessChassis.merge` hands the events to the collector and
  folds every incarnation's rounds into the workers' books
  (:func:`worker_books`).

A substrate subclasses it with two hooks: :meth:`~ProcessChassis.
_worker_call` (what a worker process runs, and over which channel) and
:meth:`~ProcessChassis._freeze` (what else "the dispatch resource
stalled" means: nothing for the master, whose thread held in ``fire``
*is* the stalled master; the counter is locked for the counter
runtime).

The worker side of the same contract lives here too: the compute step
(:class:`WorkerStep`: delay schedule, slowdown burn, the ``compute``
event) and the heartbeat sender thread, which the service pool's
workers share.

Time has one owner: the run's :class:`Clock`, whose origin the
chassis takes before its first fork.  The fault script, the wait loop,
every worker and the merge read it, so every event's ``t`` is seconds
since that origin, its ``wall`` the origin's wall stamp plus ``t``, and
plan times and message delays are times on it (``time_scale`` maps a
virtual-time plan onto a wall-clock budget).
"""

from __future__ import annotations

import collections
import contextlib
import math
import multiprocessing as mp
import os
import pickle
import shutil
import signal
import struct
import tempfile
import threading
import time
from functools import partial
from multiprocessing.process import BaseProcess
from typing import Any, Callable, Iterator, Optional, Sequence, TypeVar

import numpy as np

from ..chaos.plan import ChaosError, FaultPlan, LoadSpike
from ..obs import ObsEvent, get_logger
from ..obs import resolve as _resolve_collector
from ..simulation.metrics import WorkerMetrics
from ..workloads import Workload, matrix_add_load
from .config import RuntimeConfig

__all__ = [
    "BackgroundLoad",
    "Clock",
    "ProcessChassis",
    "WorkerCall",
    "WorkerStep",
    "assemble_results",
    "heartbeat_sender",
    "join_or_terminate",
    "locked_sender",
    "read_shard",
    "shard_writer",
    "worker_books",
]

#: Injections log as chaos acts (like their events' ``chaos`` source).
logger = get_logger("chaos")

#: What one worker incarnation runs: ``(target, args, kwargs)``.
WorkerCall = tuple[Callable[..., None], tuple[Any, ...], dict[str, Any]]

_C = TypeVar("_C", bound="ProcessChassis")


def join_or_terminate(proc: BaseProcess, timeout: float) -> None:
    """Wait for ``proc`` to exit; terminate (and reap) it if it hangs."""
    proc.join(timeout=timeout)
    if proc.is_alive():  # pragma: no cover - hang guard
        proc.terminate()
        proc.join(timeout=1.0)


def assemble_results(
    pairs: Sequence[tuple[int, Any]],
) -> np.ndarray:
    """Reassemble ``(start, payload)`` pairs in iteration order."""
    ordered = sorted(pairs, key=lambda pair: pair[0])
    return (
        np.concatenate([np.atleast_1d(np.asarray(r)) for _, r in ordered])
        if ordered
        else np.zeros(0)
    )


class Clock(object):
    """The one clock of a real run: seconds since its origin, one
    ``time.monotonic()`` reading paired with one ``time.time()`` reading
    (:attr:`wall`).  CLOCK_MONOTONIC is system-wide, so a forked worker
    reads the same timeline; an event at ``t`` carries ``wall + t``."""

    __slots__ = ("origin", "wall")

    def __init__(self) -> None:
        self.origin, self.wall = time.monotonic(), time.time()

    def now(self) -> float:
        """Seconds since the origin."""
        return time.monotonic() - self.origin

    #: Block the calling thread for the given seconds.
    sleep = staticmethod(time.sleep)


class BackgroundLoad(object):
    """The paper's nondedicated stressor as a context manager.

    Starts ``processes`` matrix-add loops (1000x1000 by default, the
    paper's size) and stops them on exit.  On a single host these
    contend for CPU with every worker; the paper pinned them to chosen
    slaves, which process-level CPU affinity could emulate but the
    experiments here treat as uniform background pressure.  A fault
    plan's load spike (``run_parallel(plan=...)``) is one of these,
    held open for the spike's window.
    """

    def __init__(
        self,
        processes: int = 2,
        size: int = 1000,
    ) -> None:
        if processes < 1:
            raise ValueError("processes must be >= 1")
        self.processes = processes
        self.size = size
        self._ctx: Any = mp.get_context("fork")
        self._stop = self._ctx.Event()
        self._procs: list[BaseProcess] = []

    def start(self) -> None:
        for i in range(self.processes):
            proc = self._ctx.Process(
                target=matrix_add_load,
                args=(self._stop,),
                kwargs={"size": self.size, "seed": i},
                daemon=True,
            )
            proc.start()
            self._procs.append(proc)

    def stop(self) -> None:
        self._stop.set()
        for proc in self._procs:
            join_or_terminate(proc, 10.0)
        self._procs.clear()

    def __enter__(self) -> "BackgroundLoad":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


class ProcessChassis(object):
    """The worker processes of one run, and the faults injected into it.

    Use as a context manager: :meth:`start` spawns the initial
    incarnations and arms the fault script, the substrate then waits
    for the work to finish (``master_loop`` on the pipes, the counter
    runtime on the :meth:`running` sentinels), calling :meth:`fire`
    every turn and waiting no longer than :meth:`due`, and leaving the
    block joins every incarnation ever spawned and removes
    :attr:`workdir`.  Plan times are seconds on :attr:`clock`.
    """

    def __init__(
        self,
        n_workers: int,
        *,
        plan: Optional[FaultPlan] = None,
        time_scale: float = 1.0,
        stress_size: int = 200,
        config: Optional[RuntimeConfig] = None,
        collector: Any = None,
    ) -> None:
        plan = FaultPlan() if plan is None else plan
        if plan.max_worker >= n_workers:
            raise ChaosError(
                f"fault plan targets worker {plan.max_worker} but the run "
                f"has {n_workers} workers"
            )
        if time_scale != 1.0:
            plan = plan.scaled(time_scale)
        self.n_workers = n_workers
        self.plan = plan
        self.stress_size = int(stress_size)
        self.ctx: Any = mp.get_context("fork")
        self.config = config or RuntimeConfig()
        #: injection events (source ``chaos``) land here.
        self.obs = _resolve_collector(collector)
        #: wid -> number of the incarnation currently (or last) alive.
        self.incarnations: dict[int, int] = {}
        self._procs: dict[int, BaseProcess] = {}
        self._spawned: list[BaseProcess] = []
        self._pending_restarts = len(plan.restarts)
        self._loads: list[BackgroundLoad] = []
        self._script: collections.deque[
            tuple[float, Callable[[], Any]]] = collections.deque()
        self._stall_depth = 0
        #: the run's one clock: its origin precedes the first fork.
        self.clock = Clock()
        #: each worker's books, folded by :meth:`merge`.
        self.books: dict[int, WorkerMetrics] = {}
        #: scratch directory of the run: one shard per incarnation.
        self.workdir = tempfile.mkdtemp(prefix="repro-run-")

    # -- substrate hooks ---------------------------------------------------

    def _worker_call(self, wid: int) -> tuple[WorkerCall, Any, Any]:
        """``(call, handle, child_end)`` for one worker incarnation.

        ``handle`` is what the parent keeps to talk to the worker (the
        master's pipe end; ``None`` on the counter substrate);
        ``child_end`` is the worker's end of that channel, closed in
        the parent as soon as the worker has it.  :meth:`spawn` adds
        what every worker gets from the chassis: ``shard_path``,
        ``clock``, ``delays`` and ``emit_events``.
        """
        raise NotImplementedError

    def _freeze(self, frozen: bool) -> None:
        """Hold (``frozen``) or release the substrate's dispatch
        resource at the edges of a plan stall.  Inert here: the master
        thread, held in :meth:`fire`, *is* the stalled master."""

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self: _C) -> _C:
        return self

    def __exit__(self, *exc: object) -> None:
        self.join()
        shutil.rmtree(self.workdir, ignore_errors=True)

    def spawn(self, wid: int) -> Any:
        """Start the next incarnation of ``wid``; returns its handle."""
        incarnation = self.incarnations.get(wid, -1) + 1
        self.incarnations[wid] = incarnation
        (target, args, kwargs), handle, child_end = self._worker_call(wid)
        # Message faults hit the original incarnation only; a restarted
        # process starts with a clean wire.
        kwargs.update(
            shard_path=self.shard_path(wid), clock=self.clock,
            emit_events=bool(self.obs), delays=None if incarnation else [
                (at, extra) for at, _kind, extra
                in self.plan.message_faults(wid)],
        )
        proc = self.ctx.Process(
            target=target, args=args, kwargs=kwargs, daemon=True
        )
        proc.start()
        if child_end is not None:
            # EOF contract: a death is noticed at the next poll, not at
            # the deadline.  A forked worker inherits every descriptor
            # the parent holds, so the parent's copy of this child end
            # must be gone before the next fork -- otherwise a sibling
            # keeps the pipe open and a SIGKILL of this worker never
            # reads as EOF on the parent's end.
            child_end.close()
        self._procs[wid] = proc
        self._spawned.append(proc)
        return handle

    def start(self) -> dict[int, Any]:
        """Spawn incarnation 0 of every worker, then arm the script."""
        handles = {wid: self.spawn(wid) for wid in range(self.n_workers)}
        self._script = self._build_script()
        return handles

    def join(self) -> None:
        """Stop the stressors; reap every incarnation."""
        for load in self._loads:
            load.stop()
        for proc in self._spawned:
            join_or_terminate(proc, self.config.join_timeout)

    def running(self) -> dict[int, BaseProcess]:
        """The incarnations not yet reaped, by process sentinel."""
        return {proc.sentinel: proc for proc in self._spawned
                if proc.is_alive()}

    # -- the fault script, as the substrate's wait loop fires it -----------

    def fire(self) -> list[tuple[int, Any]]:
        """Run every script action that is due; returns ``(worker_id,
        handle)`` of the incarnations restarted, for the caller to
        admit.

        Inside a stall the caller stays here until the stall ends --
        the thread that serves the run is the one the stall holds --
        and actions that fall inside the window still fire on time.
        """
        restarted = []
        while True:
            while self._script and self._script[0][0] <= self.clock.now():
                admission = self._script.popleft()[1]()
                if admission is not None:
                    restarted.append(admission)
            if not self._stall_depth:
                return restarted
            self.clock.sleep(self.due())

    def due(self) -> float:
        """Seconds until the next script action (``inf`` if none)."""
        if not self._script:
            return math.inf
        return max(0.0, self._script[0][0] - self.clock.now())

    def expects_more(self) -> bool:
        """True while a scripted restart has not fired yet."""
        return self._pending_restarts > 0

    # -- shards ------------------------------------------------------------

    def shard_path(self, wid: int) -> str:
        """Shard file of ``wid``'s current incarnation."""
        return os.path.join(
            self.workdir, f"shard-{wid:03d}-{self.incarnations[wid]:02d}"
        )

    def records(self) -> Iterator[tuple[int, tuple]]:
        """``(worker_id, record)`` for every whole record written, shard
        by shard in numeric (worker, incarnation) order -- SIGKILLed
        incarnations included, each up to its torn tail.  Whole-file
        reads after the join, so no cross-process locking."""
        shards = []
        for name in os.listdir(self.workdir):
            if name.startswith("shard-"):
                _tag, wid, incarnation = name.split("-")
                shards.append((int(wid), int(incarnation), name))
        for wid, _incarnation, name in sorted(shards):
            for record in read_shard(os.path.join(self.workdir, name)):
                yield wid, record

    def merge(self) -> list[tuple[int, tuple]]:
        """After the join: emit every event record into the collector,
        fold the round records into :attr:`books`, and return them as
        ``(worker_id, record)`` in :meth:`records` order."""
        rounds = []
        for wid, record in self.records():
            if record[0] == "event":
                self.obs.emit(ObsEvent._make(record[1]))
            else:
                rounds.append((wid, record))
        self.books = worker_books(rounds)
        return rounds

    # -- the fault script's actions ---------------------------------------

    def _emit(self, kind: str, worker: int = -1, **fields: Any) -> None:
        if self.obs:
            t = self.clock.now()
            self.obs.emit(ObsEvent(
                kind, "chaos", t, worker, wall=self.clock.wall + t, **fields
            ))

    def _build_script(
        self,
    ) -> collections.deque[tuple[float, Callable[[], Any]]]:
        """The plan as ``(plan time, action)`` pairs in time order (an
        action returns ``(worker_id, handle)`` when it restarts one)."""
        script: list[tuple[float, Callable[[], Any]]] = []
        for death in self.plan.deaths:
            script.append((death.at, partial(self._kill, death.worker)))
        for restart in self.plan.restarts:
            script.append(
                (restart.at, partial(self._restart, restart.worker))
            )
        for spike in self.plan.spikes:
            load = BackgroundLoad(spike.extra_q, size=self.stress_size)
            self._loads.append(load)
            script.append((spike.at, partial(self._spike, spike, load)))
            script.append((spike.at + spike.duration, load.stop))
        for stall in self.plan.stalls:
            script.append(
                (stall.at, partial(self._stalled, stall.duration))
            )
            script.append((stall.at + stall.duration, self._resumed))
        script.sort(key=lambda item: item[0])
        return collections.deque(script)

    def _kill(self, wid: int) -> None:
        proc = self._procs[wid]
        assert proc.pid is not None  # set by start(), in spawn()
        if proc.is_alive():
            logger.info("injecting death of worker %d", wid)
            self._emit("fault", wid, detail="kill")
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:  # pragma: no cover - lost race
                return
        proc.join(timeout=self.config.join_timeout)

    def _restart(self, wid: int) -> tuple[int, Any]:
        logger.info("injecting restart of worker %d", wid)
        self._emit("restart", wid, detail="spawn")
        self._pending_restarts -= 1
        return wid, self.spawn(wid)

    def _spike(self, spike: LoadSpike, load: BackgroundLoad) -> None:
        self._emit(
            "fault", spike.worker, value=spike.duration, detail="spike",
        )
        load.start()

    def _stalled(self, duration: float) -> None:
        logger.info("injecting stall of %.3fs", duration)
        self._emit("fault", value=duration, detail="stall")
        self._stall_depth += 1
        if self._stall_depth == 1:
            self._freeze(True)

    def _resumed(self) -> None:
        self._stall_depth -= 1
        if not self._stall_depth:
            self._freeze(False)


# -- the shard format ------------------------------------------------------

#: A record's frame: the length of the pickle that follows it.
_FRAME = struct.Struct("!Q")


@contextlib.contextmanager
def shard_writer(path: str) -> Iterator[Callable[[tuple], None]]:
    """The callable that appends one record to the shard at ``path``.

    Each record is one :func:`os.write` of its length frame and pickle
    on an ``O_APPEND`` descriptor held open until the block exits.
    Appends from several threads (a worker's main loop and its
    heartbeat) or processes never interleave inside a record, and
    anything written survives the writer's SIGKILL (page cache, not
    process memory); a kill mid-write tears only the last record.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    dumps, protocol = pickle.dumps, pickle.HIGHEST_PROTOCOL

    def append(record: tuple) -> None:
        blob = dumps(record, protocol)
        os.write(fd, _FRAME.pack(len(blob)) + blob)

    try:
        yield append
    finally:
        os.close(fd)


def read_shard(path: str) -> list[tuple]:
    """Every whole record of a shard, stopping at a torn tail: a frame
    that runs past the end of the file, or framed bytes that do not
    unpickle (nothing is allocated beyond the file's size)."""
    with open(path, "rb") as handle:
        data = handle.read()
    records: list[tuple] = []
    view, at = memoryview(data), 0
    while at + _FRAME.size <= len(data):
        (size,) = _FRAME.unpack_from(data, at)
        end = at + _FRAME.size + size
        if end > len(data):
            break
        try:
            records.append(pickle.loads(view[at + _FRAME.size:end]))
        except Exception:  # noqa: BLE001 - framed bytes, not a record
            break
        at = end
    return records


def worker_books(
    records: Sequence[tuple[int, tuple]],
) -> dict[int, WorkerMetrics]:
    """Each worker's books: the sum over the ``round`` records of
    :meth:`ProcessChassis.records`, so a SIGKILLed or restarted
    incarnation's whole rounds stay booked.  A round's wait is
    ``t_wait``, its compute ``t_comp``, a round with an interval one
    chunk; ``t_com`` and ``finished_at`` stay ``0.0``."""
    books: dict[int, WorkerMetrics] = {}
    for wid, record in records:
        if record[0] != "round":
            continue
        if wid not in books:
            books[wid] = WorkerMetrics(f"w{wid}")
        cells = books[wid]
        _tag, wait, compute, start, stop = record[:5]
        cells.t_wait += wait
        cells.t_comp += compute
        if start is not None:
            cells.chunks += 1
            cells.iterations += stop - start
    return books


# -- the worker side -------------------------------------------------------


class WorkerStep(object):
    """One worker process's compute step.

    Owns what every worker loop repeats around "get the next interval":
    the delay schedule served before each request or claim, the chunk
    execution with its slowdown burn, and the ``compute`` event.
    ``shard`` is the :func:`shard_writer` callable that receives this
    worker's observability events as ``("event", row)`` records
    (``None`` disables them; nothing is built on that path).  ``clock``
    is the run's :class:`Clock` (a fresh one for a direct caller).
    """

    def __init__(
        self,
        workload: Workload,
        worker_id: int,
        slowdown: float,
        delays: Optional[Sequence[tuple[float, float]]],
        source: str,
        shard: Optional[Callable[[tuple], None]],
        clock: Optional[Clock] = None,
    ) -> None:
        self.workload = workload
        self.worker_id = worker_id
        self.slowdown = slowdown
        self.clock = clock or Clock()
        self._delays = sorted(delays) if delays else []
        self._source = source
        self._shard = shard

    def emit(
        self,
        kind: str,
        at: Optional[float] = None,
        *,
        start: Optional[int] = None,
        stop: Optional[int] = None,
        stage: Optional[int] = None,
        value: Optional[float] = None,
        detail: str = "",
    ) -> None:
        """Record one event stamped ``at`` (default: now) on the clock."""
        if self._shard is None:
            return
        t = self.clock.now() if at is None else at
        self._shard(("event", (
            kind, self._source, t, self.worker_id, start, stop, stage,
            None, value, detail, self.clock.wall + t,
        )))

    def serve_delays(self) -> None:
        """Sleep out every ``(at, extra)`` delay that has come due."""
        while self._delays and self.clock.now() >= self._delays[0][0]:
            self.clock.sleep(self._delays.pop(0)[1])

    def compute(
        self, start: int, stop: int, stage: Optional[int] = None
    ) -> tuple[Any, float]:
        """Execute ``[start, stop)``; returns the chunk's payload and
        the seconds it took, burns included.

        A worker with ``slowdown = s`` executes the chunk once for the
        result, then burns ``s - 1`` more executions through
        :meth:`Workload.burn` (which bypasses memoization, so the extra
        executions really cost CPU); a fractional remainder re-executes
        a prefix of the chunk.
        """
        t0 = self.clock.now()
        payload = self.workload.execute(start, stop)
        extra = self.slowdown - 1.0
        while extra >= 1.0:
            self.workload.burn(start, stop)
            extra -= 1.0
        if extra > 0:
            part = max(1, int((stop - start) * extra))
            self.workload.burn(start, start + part)
        duration = self.clock.now() - t0
        # Span anchored at the compute *start*, so the Chrome trace
        # renders [t, t+value) as the busy interval.
        self.emit(
            "compute", at=t0, start=start, stop=stop, stage=stage,
            value=duration,
        )
        return payload, duration


def locked_sender(conn) -> Callable[[Any], None]:
    """``conn.send`` under a lock of its own: a worker's main loop and
    its heartbeat thread share one pipe, which must stay single-writer
    (a large message is written in more than one piece)."""
    lock = threading.Lock()

    def send(msg: Any) -> None:
        with lock:
            conn.send(msg)

    return send


def heartbeat_sender(
    beat: Callable[[], None], interval: Optional[float]
) -> Callable[[], None]:
    """Call ``beat()`` every ``interval`` seconds from a daemon thread.

    Lets a worker stay "alive" to its supervisor through an arbitrarily
    long chunk or job.  ``beat`` sends the heartbeat (under whatever
    lock keeps the pipe single-writer); the thread ends quietly when
    the pipe is gone.  Returns the function that stops the thread; with
    no (or a non-positive) interval nothing is started.
    """
    stop = threading.Event()
    if not interval or interval <= 0:
        return stop.set

    def run() -> None:
        while not stop.wait(interval):
            try:
                beat()
            except (OSError, ValueError):
                return

    thread = threading.Thread(target=run, daemon=True)
    thread.start()

    def stop_and_join() -> None:
        stop.set()
        thread.join(timeout=1.0)

    return stop_and_join
