"""The service's shared worker pool: real processes, production rules.

A :class:`WorkerPool` owns ``size`` long-lived OS worker processes
shared by *every* tenant, and re-uses the hardening the one-shot
runtime grew in earlier work (:mod:`repro.runtime`):

* **heartbeats** -- each worker runs a daemon beat thread, so the pool
  can tell "busy on a long chunk" from "dead" (the same contract as
  :class:`repro.runtime.config.RuntimeConfig`'s
  ``heartbeat_interval`` / ``worker_deadline`` pair, and configured by
  the same object);
* **death detection** -- each slot's pipe *and* process sentinel are
  readers on the pool's event loop, so a SIGKILL is noticed at once;
  a silent hang is noticed at the liveness deadline by one loop timer;
* **incarnation guards** -- each (re)spawn of a worker slot gets a new
  incarnation number; a job's result is only accepted from the
  incarnation the job is currently assigned to, and a dead worker's
  pipe is closed before its job is requeued, so re-execution is
  *exactly-once* (the audit in :func:`repro.verify.audit_service_log`
  proves it from the pool's ledger);
* **fair dispatch** -- pending jobs live in per-tenant FIFO queues
  served round-robin, so one chatty tenant cannot starve the rest;
  whatever changes what can be dispatched does the dispatch -- a
  :meth:`WorkerPool.submit`, or the callback that frees or revives a
  slot -- so an idle slot never waits for a timer;
* **bounded requeues** -- a job that keeps killing workers fails with
  ``too-many-requeues`` instead of crash-looping the pool.

**One thread.**  Every piece of pool state is touched on one asyncio
event loop's thread: the pipe and sentinel readers, the liveness timer
and whatever they call, so no lock guards anything.  A pipe reader
takes what a worker has sent so far and never waits for the rest of a
message, so a worker wedged mid-send cannot stall the loop.  The
daemon starts the pool inside its running loop; a pool started with
no running loop (a plain-thread caller) hosts a private loop on a
thread of its own.  A caller on another thread goes through
:func:`_on_loop`, which hands the call to the loop and waits for its
result.  The clock is that loop's ``time()``.

The pool is transport-agnostic: the asyncio daemon drives it through
:meth:`~WorkerPool.submit` and its callbacks, and the unit tests drive
it directly, from the loop or from plain threads.  Every state
transition lands in :attr:`WorkerPool.log`, the service ledger.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import dataclasses
import functools
import json
import multiprocessing as mp
import os
import pickle
import struct
import threading
from collections import deque
from typing import Callable, Optional, Union

from .. import cache as _cache
from ..batch import SimJob
from ..obs import EventList, ObsEvent, events_json, stream_digest
from ..obs.logutil import get_logger
from ..runtime.chassis import (
    heartbeat_sender,
    join_or_terminate,
    locked_sender,
)
from ..runtime.config import RuntimeConfig
from .jobs import job_from_spec

__all__ = [
    "JobRecord", "WorkerPool", "service_worker_main", "SERVICE_RUNTIME",
]

_log = get_logger("service.pool")

#: Jobs are abandoned after this many death-triggered re-executions.
DEFAULT_MAX_REQUEUES = 3

#: The most one pipe read takes.  A read follows the loop's report that
#: the pipe is readable, so it returns what has arrived and never waits
#: for the rest of a message (a ``done`` body may be megabytes).
_READ_SIZE = 1 << 18

#: The service's timing defaults (pool and ``ServiceConfig.runtime``):
#: snappier than the one-shot runtime's, because a daemon restart is
#: cheap and a wedged slot stalls every tenant.
SERVICE_RUNTIME = RuntimeConfig(
    poll_timeout=0.1,
    worker_deadline=30.0,
    heartbeat_interval=0.5,
    join_timeout=5.0,
)


class _StreamCollector(object):
    """Truthy collector that forwards events over the worker pipe.

    Retains the full event list (so the result payload and digest are
    byte-identical to an unstreamed run) while batching the events
    themselves to the pool as ``("ev", job_id, batch)`` messages: the
    daemon builds dicts only for a watcher that wants them.  Send
    failures are swallowed: streaming is best-effort and must never
    fail the job itself.
    """

    BATCH = 64

    def __init__(self, send, job_id: str) -> None:
        self._send = send
        self._job_id = job_id
        self._pending: list[ObsEvent] = []
        self.events = EventList()

    def __bool__(self) -> bool:
        return True

    def emit(self, event: ObsEvent) -> None:
        self.events.rows().append(event)
        self._pending.append(event)
        if len(self._pending) >= self.BATCH:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        try:
            self._send(("ev", self._job_id, batch))
        except (OSError, ValueError, BrokenPipeError):
            pass  # daemon went away; the job still finishes


def _error_body(message: str) -> bytes:
    return json.dumps(
        {"error": message}, separators=(",", ":")
    ).encode("utf-8")


def _execute_body(
    job, want_results: bool, want_trace: bool, collector=None
) -> tuple[Optional[str], bytes]:
    """Run one job in the current process; ``(digest, body)``.

    ``job`` is a wire spec (what the daemon admitted), built here with
    :func:`~repro.service.jobs.job_from_spec`, or a ready
    :class:`~repro.batch.SimJob`.

    ``body`` is the job's share of its ``wait`` reply, encoded here,
    once: a JSON object of ``digest``, ``events_emitted``, ``result``
    (:meth:`~repro.simulation.metrics.SimResult.to_json`) and (on
    request) ``trace`` (:func:`~repro.obs.events_json`), joined as
    bytes -- or of ``error`` alone, with a ``None`` digest, when the
    job or its encoding raised.  Nothing downstream decodes it: the
    pool stores the bytes, the daemon frames them.

    The digest is computed *here*, from the same
    :func:`~repro.obs.stream_digest` a one-shot caller would apply to
    ``job_from_spec(spec).run().obs_events`` -- that equality is the
    service's bit-exactness contract.  ``collector`` (a
    :class:`_StreamCollector`) taps the identical events live without
    perturbing that digest.
    """
    try:
        if isinstance(job, dict):
            job = job_from_spec(job)
        if collector is not None:
            result = job.run(collector=collector)
        else:
            result = job.run()
        events = result.obs_events or []
        digest = stream_digest(events)
        parts = [
            b'{"digest":"%s","events_emitted":%d,"result":' % (
                digest.encode("ascii"), len(events)),
            result.to_json(want_results).encode("utf-8"),
        ]
        if want_trace:
            parts += (b',"trace":', events_json(events).encode("utf-8"))
    except BaseException as exc:  # noqa: BLE001 - ferried to the client
        # Encoding sits inside too: an exception out of here would kill
        # the pool worker and requeue the job until too-many-requeues.
        return None, _error_body(f"{type(exc).__name__}: {exc}")
    parts.append(b"}")
    return digest, b"".join(parts)


def service_worker_main(
    conn,
    worker_id: int,
    heartbeat_interval: Optional[float],
) -> None:
    """Pool worker process target: loop jobs until ``stop`` or EOF.

    A daemon beat thread shares the pipe through one locked sender, so
    liveness survives arbitrarily long jobs (the same sender as
    :func:`repro.runtime.worker.worker_main`).

    Cost profiles are resolved here, by ``job.run()``, through this
    process's :mod:`repro.cache` (the fork's copy of the daemon's:
    same directory, its own memory layer).  Every ``done`` carries the
    ``(hits, misses)`` this incarnation has added to it so far; the
    pool sums them for ``status``.
    """
    profiles = _cache.get_cache()
    hits0, misses0 = profiles.hits, profiles.misses
    _send = locked_sender(conn)
    stop_beat = heartbeat_sender(
        lambda: _send(("hb", worker_id)), heartbeat_interval
    )
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                return  # daemon went away: die quietly
            if msg[0] == "stop":
                return
            _op, job_id, job, want_results, want_trace, want_stream = msg
            collector = (
                _StreamCollector(_send, job_id) if want_stream else None
            )
            digest, body = _execute_body(
                job, want_results, want_trace, collector=collector
            )
            if collector is not None:
                # Pipe order is delivery order: every chunk event is
                # on the wire before the terminal result.
                collector.flush()
            try:
                _send(("done", job_id, digest, body, (
                    profiles.hits - hits0, profiles.misses - misses0,
                )))
            except (OSError, ValueError, BrokenPipeError):
                return
    finally:
        stop_beat()


@dataclasses.dataclass
class JobRecord(object):
    """One admitted job's full lifecycle inside the service.

    A terminal record keeps what its ``wait`` replies need and nothing
    else: ``body`` (the encoded reply members, see
    :func:`_execute_body`) and ``digest`` (``None`` when the job
    failed).  ``job`` -- the inputs alone: the daemon stores the wire
    spec it admitted, and the worker that runs it builds the
    ``SimJob`` and resolves the cost profile; a ready ``SimJob`` runs
    as well -- is held for the dispatch, and any re-dispatch after a
    worker death, and released when the record turns terminal.
    """

    job_id: str
    tenant: str
    job: Union[dict, SimJob, None]
    want_results: bool = False
    want_trace: bool = False
    want_stream: bool = False
    state: str = "queued"  # queued | running | done | failed
    worker: int = -1
    incarnation: int = -1
    requeues: int = 0
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    digest: Optional[str] = None
    body: Optional[bytes] = None

    @property
    def terminal(self) -> bool:
        return self.state in ("done", "failed")

    def finish(
        self, at: float, digest: Optional[str], body: bytes
    ) -> None:
        """Turn terminal: keep the reply, release the inputs."""
        self.state = "done" if digest is not None else "failed"
        self.finished_at = at
        self.digest = digest
        self.body = body
        self.job = None


def _on_loop(method):
    """Run a :class:`WorkerPool` method on the pool's event loop.

    The one way in from another thread.  The call runs inline when the
    caller is on that loop, or when no loop is running the pool (before
    :meth:`~WorkerPool.start`, after :meth:`~WorkerPool.stop`).
    Otherwise it is handed over with ``call_soon_threadsafe`` and the
    caller waits for its result (or exception), so a public method
    means the same on and off the loop.  A loop that stops with the
    call still queued never runs it: the caller withdraws it and runs
    it inline instead of waiting forever.
    """

    @functools.wraps(method)
    def call(pool: "WorkerPool", *args):
        loop = pool._loop
        if loop is None or not loop.is_running() \
                or asyncio._get_running_loop() is loop:
            return method(pool, *args)
        result: concurrent.futures.Future = concurrent.futures.Future()

        def run() -> None:
            if not result.set_running_or_notify_cancel():
                return  # withdrawn: the caller ran it inline
            try:
                result.set_result(method(pool, *args))
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                result.set_exception(exc)

        try:
            loop.call_soon_threadsafe(run)
        except RuntimeError:  # closed since the check
            return method(pool, *args)
        while True:
            try:
                return result.result(timeout=0.1)
            except concurrent.futures.TimeoutError:  # is it still coming?
                if not loop.is_running() and result.cancel():
                    return method(pool, *args)

    return call


def _take_messages(inbox: bytearray) -> list:
    """Pop every complete message off the front of ``inbox``.

    The framing is :meth:`multiprocessing.connection.Connection.send`'s,
    which the workers write with: a ``!i`` length (or ``-1`` and then a
    ``!Q`` length, past 2 GiB) and the pickle.  An incomplete message
    stays in ``inbox`` for the next read.
    """
    messages = []
    while len(inbox) >= 4:
        (size,) = struct.unpack_from("!i", inbox)
        head = 4
        if size == -1:
            if len(inbox) < 12:
                break
            (size,) = struct.unpack_from("!Q", inbox, 4)
            head = 12
        end = head + size
        if len(inbox) < end:
            break
        with memoryview(inbox) as view:
            messages.append(pickle.loads(view[head:end]))
        del inbox[:end]
    return messages


class _Handle(object):
    """One worker slot: the live process behind it may be reincarnated.

    ``conn`` is ``None`` only before :meth:`WorkerPool.start` and after
    :meth:`WorkerPool.stop`; ``last_seen`` is the loop-clock time the
    live incarnation was last heard from; ``inbox`` holds what it has
    sent of a message not yet whole.
    """

    __slots__ = ("slot", "proc", "conn", "incarnation", "last_seen",
                 "record", "cache", "inbox")

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.proc = None
        self.conn = None
        self.incarnation = -1
        self.last_seen = 0.0
        self.record: Optional[JobRecord] = None
        #: ``(hits, misses)`` the live incarnation last reported.
        self.cache = (0, 0)
        self.inbox = bytearray()


class WorkerPool(object):
    """Shared multi-tenant execution pool (see module doc).

    The callbacks run on the pool's loop.  ``on_complete(record)``
    fires whenever a job reaches a terminal state, and
    ``on_events(record, batch)`` for each batch of chunk events a
    worker streams.  ``on_idle()`` fires whenever the pool transitions
    to fully idle (nothing queued, nothing running) -- the drain hook.
    Only a job turning terminal can make that transition, so it fires
    there, after that job's ``on_complete``, and never from an idle
    liveness scan.
    """

    def __init__(
        self,
        size: int,
        config: Optional[RuntimeConfig] = None,
        on_complete: Optional[Callable[[JobRecord], None]] = None,
        on_idle: Optional[Callable[[], None]] = None,
        on_events: Optional[
            Callable[[JobRecord, list], None]
        ] = None,
        max_requeues: int = DEFAULT_MAX_REQUEUES,
        mp_context: str = "fork",
    ) -> None:
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.size = int(size)
        self.config = config or SERVICE_RUNTIME
        self.on_complete = on_complete or (lambda record: None)
        self.on_idle = on_idle or (lambda: None)
        self.on_events = on_events or (lambda record, batch: None)
        self.max_requeues = int(max_requeues)
        self._ctx = mp.get_context(mp_context)
        self._handles: list[_Handle] = [
            _Handle(slot) for slot in range(self.size)
        ]
        self._queues: dict[str, deque[JobRecord]] = {}
        self._rr: deque[str] = deque()
        self._records: dict[str, JobRecord] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: The private loop's thread, when start() found no loop running.
        self._host: Optional[threading.Thread] = None
        self._scan: Optional[asyncio.TimerHandle] = None
        self._running = False
        #: The service ledger: every submit/assign/result/death/requeue,
        #: consumed by :func:`repro.verify.audit_service_log`.
        self.log: list[dict] = []
        #: ``worker-death`` entries in :attr:`log`, counted as they are
        #: appended so a ``metrics`` poll never rescans the ledger.
        self._worker_deaths = 0
        #: ``[hits, misses]`` of incarnations that are gone.
        self._cache_retired = [0, 0]

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "WorkerPool":
        """Spawn the workers and watch them from the running loop, or,
        with none running, from a private loop on a host thread that
        starts after the fork."""
        if self._running:
            return self
        running = asyncio._get_running_loop()
        loop = self._loop = running or asyncio.new_event_loop()
        self._running = True
        for handle in self._handles:
            self._spawn(handle)
        self._scan_liveness()
        self._dispatch()  # whatever was queued before start()
        if running is None:
            # Return once the loop runs: from then on, a call from this
            # thread is handed over instead of racing the host.
            hosting = threading.Event()
            loop.call_soon(hosting.set)
            self._host = threading.Thread(
                target=loop.run_forever, name="service-pool-host",
                daemon=True,
            )
            self._host.start()
            hosting.wait()
        return self

    def stop(self) -> None:
        """Tear the pool down (jobs still queued are left unfinished).

        The one pool call that blocks on a child process: it joins the
        workers it told to stop.
        """
        if not self._running:
            return
        self._close()
        if self._host is not None:
            self._host.join(timeout=self.config.join_timeout)
            self._host = None
            self._loop.close()
        for handle in self._handles:
            if handle.proc is not None:
                join_or_terminate(handle.proc, self.config.join_timeout)

    @_on_loop
    def _close(self) -> None:
        self._running = False
        self._scan.cancel()
        loop = self._loop
        for handle in self._handles:
            conn = handle.conn
            if conn is None:
                continue
            loop.remove_reader(conn.fileno())
            loop.remove_reader(handle.proc.sentinel)
            try:
                conn.send(("stop",))
            except (OSError, ValueError, BrokenPipeError):
                pass
            conn.close()
            handle.conn = None
        if self._host is not None:
            loop.stop()

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- submission and state ----------------------------------------------

    @_on_loop
    def submit(self, record: JobRecord) -> None:
        """Enqueue an admitted job (admission control is the server's)
        and, if a slot is idle, send it there before returning."""
        record.submitted_at = self.now()
        queue = self._queues.get(record.tenant)
        if queue is None:
            queue = self._queues[record.tenant] = deque()
            self._rr.append(record.tenant)
        queue.append(record)
        self._records[record.job_id] = record
        self._append_log("submit", record, worker=None, incarnation=None)
        self._dispatch()

    def now(self) -> float:
        """The service clock: the pool loop's ``time()`` (0.0 before
        :meth:`start`)."""
        return 0.0 if self._loop is None else self._loop.time()

    @_on_loop
    def stats(self) -> dict:
        queued = {t: len(q) for t, q in self._queues.items() if q}
        return {
            "queued": sum(queued.values()),
            "queued_by_tenant": queued,
            "inflight": sum(
                1 for h in self._handles if h.record is not None
            ),
            "workers": self.size,
            "workers_live": sum(
                1
                for h in self._handles
                if h.proc is not None and h.proc.is_alive()
            ),
            "worker_deaths": self._worker_deaths,
        }

    @_on_loop
    def pending_total(self) -> int:
        """Jobs admitted but not terminal (queued + running)."""
        return sum(len(q) for q in self._queues.values()) + sum(
            1 for h in self._handles if h.record is not None
        )

    def idle(self) -> bool:
        return self.pending_total() == 0

    @_on_loop
    def cache_counters(self) -> tuple[int, int]:
        """``(hits, misses)`` of the workers' cost-profile caches:
        what each live incarnation last reported, plus everything the
        dead ones had reported."""
        hits, misses = self._cache_retired
        for handle in self._handles:
            hits += handle.cache[0]
            misses += handle.cache[1]
        return hits, misses

    # -- chaos hooks ---------------------------------------------------------

    @_on_loop
    def kill_worker(self, slot: int) -> bool:
        """SIGKILL one worker slot's current incarnation (chaos hook).

        Returns False when the slot has no live process right now.  Its
        sentinel fires on the loop, which requeues the victim's job and
        respawns the slot.
        """
        if not 0 <= slot < self.size:
            raise ValueError(
                f"worker slot must be in [0, {self.size}), got {slot}"
            )
        proc = self._handles[slot].proc
        if proc is None or not proc.is_alive():
            return False
        proc.kill()
        return True

    @_on_loop
    def worker_pids(self) -> list[Optional[int]]:
        return [
            h.proc.pid if h.proc is not None else None
            for h in self._handles
        ]

    @_on_loop
    def busy_slots(self) -> dict[int, str]:
        """``{slot: job_id}`` for slots currently executing a job."""
        return {
            h.slot: h.record.job_id
            for h in self._handles
            if h.record is not None
        }

    # -- internals: all on the pool's loop ---------------------------------

    def _append_log(
        self,
        ev: str,
        record: JobRecord,
        worker: Optional[int],
        incarnation: Optional[int],
        **extra,
    ) -> None:
        entry = {
            "ev": ev,
            "job": record.job_id,
            "tenant": record.tenant,
            "at": self.now(),
        }
        if worker is not None:
            entry["worker"] = worker
        if incarnation is not None:
            entry["incarnation"] = incarnation
        entry.update(extra)
        self.log.append(entry)

    def _spawn(self, handle: _Handle) -> None:
        """Fork the slot's next incarnation and watch its pipe and its
        sentinel from the loop."""
        parent, child = self._ctx.Pipe()
        incarnation = handle.incarnation + 1
        proc = self._ctx.Process(
            target=service_worker_main,
            args=(child, handle.slot),
            kwargs={
                "heartbeat_interval": self.config.heartbeat_interval,
            },
            daemon=False,
            name=f"repro-service-w{handle.slot}.{incarnation}",
        )
        proc.start()
        child.close()
        handle.incarnation = incarnation
        handle.proc = proc
        handle.conn = parent
        handle.inbox = bytearray()
        handle.last_seen = self._loop.time()
        self._loop.add_reader(parent.fileno(), self._readable, handle)
        self._loop.add_reader(proc.sentinel, self._exited, handle, proc)
        _log.info(
            "spawned worker slot=%d incarnation=%d pid=%s",
            handle.slot, incarnation, proc.pid,
        )

    def _scan_liveness(self) -> None:
        """The liveness timer: retire every incarnation silent past its
        deadline, then re-arm for the nearest expiry (the master's rule,
        :meth:`RuntimeConfig.wait_bound`)."""
        loop = self._loop
        live = [h for h in self._handles if h.conn is not None]
        for slot in self.config.overdue(
            {h.slot: h.last_seen for h in live}, loop.time()
        ):
            handle = self._handles[slot]
            self._retire(handle, handle.incarnation)
        self._scan = loop.call_later(
            self.config.wait_bound(
                [h.last_seen for h in live], loop.time()
            ),
            self._scan_liveness,
        )

    def _readable(self, handle: _Handle) -> None:
        if not self._receive(handle):
            # EOF: the incarnation is gone, or going.
            self._retire(handle, handle.incarnation)

    def _exited(self, handle: _Handle, proc) -> None:
        """``proc``'s sentinel fired.  While it is still the slot's
        incarnation, what it sent before it died counts, and then the
        slot is revived.  Either way it is reaped: the join cannot
        block, the process has exited."""
        self._loop.remove_reader(proc.sentinel)
        if handle.proc is proc:
            while handle.conn.poll(0) and self._receive(handle):
                pass
            self._revive(handle)
        proc.join(timeout=1.0)
    def _retire(self, handle: _Handle, incarnation: int) -> None:
        """Give up on an incarnation (EOF, silent past its deadline, or
        a failed send): SIGKILL it and revive the slot now, so a
        wedged incarnation can never deliver a stale result.  Its
        sentinel reaps it later."""
        if handle.incarnation != incarnation or handle.conn is None:
            return  # revived already, or the pool stopped
        handle.proc.kill()
        self._revive(handle)

    def _receive(self, handle: _Handle) -> bool:
        """One read of the slot's pipe, which the loop has reported
        readable, so it takes what has arrived and does not wait for
        more; then handle every message that completes.  False at EOF
        or on a dead pipe."""
        try:
            data = os.read(handle.conn.fileno(), _READ_SIZE)
        except OSError:
            data = b""
        if not data:
            return False
        handle.last_seen = self._loop.time()
        handle.inbox += data
        for msg in _take_messages(handle.inbox):
            if msg[0] == "done":
                self._handle_done(handle, *msg[1:])
            elif msg[0] == "ev" and handle.record is not None \
                    and handle.record.job_id == msg[1]:
                # Chunk events streamed mid-run, under the results'
                # freshness rule: only the job this slot runs counts (a
                # dead incarnation's pipe is closed before its job is
                # requeued, so its batches cannot arrive at all).
                self.on_events(handle.record, msg[2])
        return True

    def _handle_done(
        self, handle: _Handle, job_id: str,
        digest: Optional[str], body: bytes, cache: tuple[int, int],
    ) -> None:
        handle.cache = cache
        record = handle.record
        if record is None or record.job_id != job_id \
                or record.incarnation != handle.incarnation:
            # Incarnation guard: a delivery the ledger no longer
            # expects (job already requeued elsewhere) is dropped,
            # never double-counted.
            stale = self._records.get(job_id)
            if stale is not None:
                self._append_log(
                    "stale-result", stale,
                    worker=handle.slot, incarnation=handle.incarnation,
                )
            _log.warning(
                "dropped stale result for job %s from slot %d",
                job_id, handle.slot,
            )
            return
        handle.record = None
        record.finish(self.now(), digest, body)
        self._append_log(
            "result" if digest is not None else "error",
            record,
            worker=handle.slot,
            incarnation=handle.incarnation,
        )
        self._dispatch()  # the slot this freed
        self._completed(record)

    def _completed(self, record: JobRecord) -> None:
        self.on_complete(record)
        if self.pending_total() == 0:
            self.on_idle()

    def _revive(self, handle: _Handle) -> None:
        """An incarnation is gone: close its pipe, requeue its job (or
        fail it), respawn the slot."""
        self._loop.remove_reader(handle.conn.fileno())
        handle.conn.close()
        handle.conn = None
        self._cache_retired[0] += handle.cache[0]
        self._cache_retired[1] += handle.cache[1]
        handle.cache = (0, 0)
        record, handle.record = handle.record, None
        failed = False
        if record is not None:
            self._append_log(
                "worker-death", record,
                worker=handle.slot, incarnation=handle.incarnation,
            )
            self._worker_deaths += 1
            record.requeues += 1
            failed = record.requeues > self.max_requeues
            if failed:
                record.finish(self.now(), None, _error_body(
                    f"too-many-requeues: job killed "
                    f"{record.requeues} worker incarnations"
                ))
                self._append_log(
                    "error", record,
                    worker=handle.slot, incarnation=handle.incarnation,
                )
            else:
                record.state = "queued"
                record.worker = -1
                record.incarnation = -1
                self._append_log(
                    "requeue", record,
                    worker=handle.slot, incarnation=handle.incarnation,
                )
                # Head of its tenant's queue: a faulted job keeps its
                # place in line (FIFO requeue, like the runtime
                # master's interval requeue).
                self._queues.setdefault(
                    record.tenant, deque()
                ).appendleft(record)
                if record.tenant not in self._rr:
                    self._rr.append(record.tenant)
        _log.warning(
            "worker slot=%d incarnation=%d died%s",
            handle.slot, handle.incarnation,
            "" if record is None else " (job requeued or failed)",
        )
        self._spawn(handle)
        self._dispatch()  # the slot this revived, or any idle one
        if failed:
            self._completed(record)

    def _dispatch(self) -> None:
        """Hand queued jobs to idle workers, round-robin over tenants.

        The one place a job is sent to a worker, run by whatever made a
        dispatch possible: :meth:`submit` for a new job, the callback
        that freed or revived a slot.  A send that fails leaves the
        slot holding its record, so nothing else is dispatched to it,
        and schedules that incarnation's retirement, which requeues
        the record.
        """
        while True:
            idle = next(
                (
                    h for h in self._handles
                    if h.record is None and h.conn is not None
                    and h.proc.is_alive()
                ),
                None,
            )
            if idle is None:
                return
            record = self._next_record()
            if record is None:
                return
            record.state = "running"
            record.worker = idle.slot
            record.incarnation = idle.incarnation
            record.started_at = self.now()
            idle.record = record
            self._append_log(
                "assign", record,
                worker=idle.slot, incarnation=idle.incarnation,
            )
            try:
                idle.conn.send((
                    "job",
                    record.job_id,
                    record.job,
                    record.want_results,
                    record.want_trace,
                    record.want_stream,
                ))
            except (OSError, ValueError, BrokenPipeError):
                self._loop.call_soon(
                    self._retire, idle, idle.incarnation
                )

    def _next_record(self) -> Optional[JobRecord]:
        for _ in range(len(self._rr)):
            tenant = self._rr[0]
            self._rr.rotate(-1)
            queue = self._queues.get(tenant)
            if queue:
                return queue.popleft()
        return None
