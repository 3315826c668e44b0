"""One real-process chassis: spawn, fault script, join and shards, once.

The wall-clock counterpart of :mod:`repro.simulation.des`.  Both real
substrates -- the master runtime (:func:`repro.runtime.run_parallel`)
and the counter runtime (:func:`repro.decentral.run_decentral`) -- run
their worker processes on a :class:`ProcessChassis`, which owns

* the multiprocessing context and the per-worker incarnation table;
* **the one spawn site** (:meth:`ProcessChassis.spawn`);
* one time-ordered **fault script** replaying a
  :class:`~repro.chaos.FaultPlan` from a side thread: *death* is a
  SIGKILL of the worker's current incarnation, *restart* a fresh
  incarnation under the same id, *spike* a :class:`BackgroundLoad` for
  the window, *stall* the substrate's :meth:`~ProcessChassis._freeze`;
  message *delay* / *loss* travel to the worker as ``(at, extra)``
  sleeps (a lost datagram and its retransmission look identical to the
  protocol: one late request).  An empty plan drives nothing, so a
  fault-free run is the same path;
* join-or-terminate, the run's scratch directory with one shard file
  per incarnation, and result assembly.

A substrate subclasses it with two hooks: :meth:`~ProcessChassis.
_worker_call` (what a worker process runs, and over which channel) and
:meth:`~ProcessChassis._freeze` (what "the dispatch resource stalled"
means: the master thread sleeps / the counter is held).

The worker side of the same contract lives here too: the compute step
(:class:`WorkerStep`: delay schedule, slowdown burn, ``WorkerStats``,
the ``compute`` event) and the heartbeat sender thread, which the
service pool's workers share.

Plan times are wall-clock seconds after the initial workers are up;
``time_scale`` maps a virtual-time plan onto a wall-clock budget.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import shutil
import signal
import tempfile
import threading
import time
from functools import partial
from multiprocessing.process import BaseProcess
from typing import Any, Callable, Optional, Sequence, TypeVar

import numpy as np

from ..chaos.plan import ChaosError, FaultPlan, LoadSpike
from ..obs import ObsEvent, get_logger
from ..obs import resolve as _resolve_collector
from ..workloads import Workload, matrix_add_load
from .config import RuntimeConfig
from .messages import WorkerStats

__all__ = [
    "BackgroundLoad",
    "ProcessChassis",
    "WorkerCall",
    "WorkerStep",
    "assemble_results",
    "heartbeat_sender",
    "join_or_terminate",
    "locked_sender",
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
        mp_context: str = "fork",
    ) -> None:
        if processes < 1:
            raise ValueError("processes must be >= 1")
        self.processes = processes
        self.size = size
        self._ctx: Any = mp.get_context(mp_context)
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
    for the work to finish (``master_loop`` / polling :meth:`alive`),
    and leaving the block joins every incarnation ever spawned and
    removes :attr:`workdir`.
    """

    def __init__(
        self,
        n_workers: int,
        *,
        plan: Optional[FaultPlan] = None,
        time_scale: float = 1.0,
        stress_size: int = 200,
        mp_context: str = "fork",
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
        self.mp_context = mp_context
        self.ctx: Any = mp.get_context(mp_context)
        self.config = config or RuntimeConfig.from_env()
        #: injection events (source ``chaos``) land here.
        self.obs = _resolve_collector(collector)
        #: wid -> number of the incarnation currently (or last) alive.
        self.incarnations: dict[int, int] = {}
        self._lock = threading.Lock()
        self._procs: dict[int, BaseProcess] = {}
        self._spawned: list[BaseProcess] = []
        self._admissions: list[tuple[int, Any]] = []
        self._pending_restarts = len(plan.restarts)
        self._loads: list[BackgroundLoad] = []
        self._thread: Optional[threading.Thread] = None
        self._abort = threading.Event()
        self._t0 = 0.0
        #: scratch directory of the run: one shard per incarnation.
        self.workdir = tempfile.mkdtemp(prefix="repro-run-")

    # -- substrate hooks ---------------------------------------------------

    def _worker_call(
        self, wid: int, incarnation: int
    ) -> tuple[WorkerCall, Any, Any]:
        """``(call, handle, child_end)`` for one worker incarnation.

        ``handle`` is what the parent keeps to talk to the worker (the
        master's pipe end; ``None`` on the counter substrate);
        ``child_end`` is the worker's end of that channel, closed in
        the parent as soon as the worker has it.
        """
        raise NotImplementedError

    def _freeze(self, duration: float) -> None:
        """Freeze the substrate's dispatch resource for ``duration``."""
        raise NotImplementedError

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
        (target, args, kwargs), handle, child_end = self._worker_call(
            wid, incarnation
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
        with self._lock:
            self._procs[wid] = proc
            self._spawned.append(proc)
        return handle

    def start(self) -> dict[int, Any]:
        """Spawn incarnation 0 of every worker, then arm the script."""
        handles = {wid: self.spawn(wid) for wid in range(self.n_workers)}
        self._t0 = time.monotonic()
        self._thread = threading.Thread(target=self._drive, daemon=True)
        self._thread.start()
        return handles

    def join(self) -> None:
        """Stop the script and stressors; reap every incarnation."""
        self._abort.set()
        if self._thread is not None:
            self._thread.join(timeout=self.config.join_timeout)
        for load in self._loads:
            load.stop()
        for proc in self.processes():
            join_or_terminate(proc, self.config.join_timeout)

    def processes(self) -> list[BaseProcess]:
        """Every incarnation ever spawned."""
        with self._lock:
            return list(self._spawned)

    def alive(self) -> bool:
        return any(proc.is_alive() for proc in self.processes())

    # -- restarts, as the substrate's wait loop sees them ------------------

    def admissions(self) -> list[tuple[int, Any]]:
        """``(worker_id, handle)`` of incarnations restarted since the
        last call (the master admits them into its loop)."""
        with self._lock:
            batch, self._admissions = self._admissions, []
            self._pending_restarts -= len(batch)
        return batch

    def expects_more(self) -> bool:
        """True while a scripted restart has not been admitted yet."""
        with self._lock:
            return self._pending_restarts > 0

    # -- shards ------------------------------------------------------------

    def shard_path(self, wid: int, suffix: str) -> str:
        """Shard file of ``wid``'s current incarnation."""
        return os.path.join(
            self.workdir,
            f"shard-{wid:03d}-{self.incarnations[wid]:02d}{suffix}",
        )

    def shards(self) -> list[tuple[int, str]]:
        """``(worker_id, path)`` per shard written, in (worker,
        incarnation) order -- SIGKILLed incarnations included."""
        return [
            (int(name.split("-")[1]), os.path.join(self.workdir, name))
            for name in sorted(os.listdir(self.workdir))
            if name.startswith("shard-")
        ]

    def delays_for(
        self, wid: int, incarnation: int
    ) -> Optional[list[tuple[float, float]]]:
        """The worker's delay/loss faults as ``(at, extra)`` sleeps.

        Message faults hit the original incarnation only; a restarted
        process starts with a clean wire.
        """
        if incarnation > 0:
            return None
        return [
            (at, extra)
            for at, _kind, extra in self.plan.message_faults(wid)
        ]

    # -- the fault script (runs on its own thread) -------------------------

    def _emit(self, kind: str, worker: int = -1, **fields: Any) -> None:
        if self.obs:
            self.obs.emit(ObsEvent(
                kind, "chaos", time.monotonic() - self._t0, worker,
                wall=time.time(), **fields,
            ))

    def _sleep_until(self, at: float) -> bool:
        """Sleep to plan time ``at``; False if the run ended first."""
        remaining = (self._t0 + at) - time.monotonic()
        while remaining > 0:
            if self._abort.wait(min(remaining, 0.05)):
                return False
            remaining = (self._t0 + at) - time.monotonic()
        return not self._abort.is_set()

    def _drive(self) -> None:
        script: list[tuple[float, Callable[[], None]]] = []
        for death in self.plan.deaths:
            script.append((death.at, partial(self._kill, death.worker)))
        for restart in self.plan.restarts:
            script.append(
                (restart.at, partial(self._restart, restart.worker))
            )
        for spike in self.plan.spikes:
            load = BackgroundLoad(
                spike.extra_q, size=self.stress_size,
                mp_context=self.mp_context,
            )
            self._loads.append(load)
            script.append((spike.at, partial(self._spike, spike, load)))
            script.append((spike.at + spike.duration, load.stop))
        for stall in self.plan.stalls:
            script.append(
                (stall.at, partial(self._stalled, stall.duration))
            )
        script.sort(key=lambda item: item[0])
        for at, act in script:
            if not self._sleep_until(at):
                return
            act()

    def _kill(self, wid: int) -> None:
        with self._lock:
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

    def _restart(self, wid: int) -> None:
        logger.info("injecting restart of worker %d", wid)
        self._emit("restart", wid, detail="spawn")
        handle = self.spawn(wid)
        with self._lock:
            self._admissions.append((wid, handle))

    def _spike(self, spike: LoadSpike, load: BackgroundLoad) -> None:
        self._emit(
            "fault", spike.worker, value=spike.duration, detail="spike",
        )
        load.start()

    def _stalled(self, duration: float) -> None:
        logger.info("injecting stall of %.3fs", duration)
        self._emit("fault", value=duration, detail="stall")
        self._freeze(duration)


# -- the worker side -------------------------------------------------------


class WorkerStep(object):
    """One worker process's compute step and its accounting.

    Owns what every worker loop repeats around "get the next interval":
    the delay schedule served before each request or claim, the chunk
    execution with its slowdown burn, the :class:`WorkerStats` tally,
    and the ``compute`` event.  ``sink`` receives this worker's
    observability events (``None`` disables them; nothing is built on
    that path).
    """

    def __init__(
        self,
        workload: Workload,
        worker_id: int,
        slowdown: float,
        delays: Optional[Sequence[tuple[float, float]]],
        source: str,
        sink: Optional[Callable[[ObsEvent], None]],
    ) -> None:
        self.workload = workload
        self.worker_id = worker_id
        self.slowdown = slowdown
        self.stats = WorkerStats()
        self.born = time.perf_counter()
        self._delays = sorted(delays) if delays else []
        self._source = source
        self._sink = sink

    def emit(
        self, kind: str, at: Optional[float] = None, **fields: Any
    ) -> None:
        """Emit one event stamped ``at`` (default: now) since birth."""
        if self._sink is None:
            return
        t = (time.perf_counter() if at is None else at) - self.born
        self._sink(ObsEvent(
            kind, self._source, t, self.worker_id, wall=time.time(),
            **fields,
        ))

    def serve_delays(self) -> None:
        """Sleep out every ``(at, extra)`` delay that has come due."""
        while self._delays \
                and time.perf_counter() - self.born >= self._delays[0][0]:
            time.sleep(self._delays.pop(0)[1])

    def compute(
        self, start: int, stop: int, stage: Optional[int] = None
    ) -> Any:
        """Execute ``[start, stop)``; returns the chunk's payload.

        A worker with ``slowdown = s`` executes the chunk once for the
        result, then burns ``s - 1`` more executions through
        :meth:`Workload.burn` (which bypasses memoization, so the extra
        executions really cost CPU); a fractional remainder re-executes
        a prefix of the chunk.
        """
        t0 = time.perf_counter()
        payload = self.workload.execute(start, stop)
        extra = self.slowdown - 1.0
        while extra >= 1.0:
            self.workload.burn(start, stop)
            extra -= 1.0
        if extra > 0:
            part = max(1, int((stop - start) * extra))
            self.workload.burn(start, start + part)
        duration = time.perf_counter() - t0
        self.stats.compute_seconds += duration
        self.stats.chunks += 1
        self.stats.iterations += stop - start
        # Span anchored at the compute *start*, so the Chrome trace
        # renders [t, t+value) as the busy interval.
        self.emit(
            "compute", at=t0, start=start, stop=stop, stage=stage,
            value=duration,
        )
        return payload


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
