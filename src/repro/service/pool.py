"""The service's shared worker pool: real processes, production rules.

A :class:`WorkerPool` owns ``size`` long-lived OS worker processes
shared by *every* tenant, and re-uses the hardening the one-shot
runtime grew in earlier work (:mod:`repro.runtime`):

* **heartbeats** -- each worker runs a daemon beat thread, so the pool
  can tell "busy on a long chunk" from "dead" (the same contract as
  :class:`repro.runtime.config.RuntimeConfig`'s
  ``heartbeat_interval`` / ``worker_deadline`` pair, and configured by
  the same object);
* **death detection** -- the pump waits on worker pipes *and* process
  sentinels, so a SIGKILL is noticed immediately and a silent hang at
  the liveness deadline;
* **incarnation guards** -- each (re)spawn of a worker slot gets a new
  incarnation number; a job's result is only accepted from the
  incarnation the job is currently assigned to, and a dead worker's
  pipe is closed before its job is requeued, so re-execution is
  *exactly-once* (the audit in :func:`repro.verify.audit_service_log`
  proves it from the pool's ledger);
* **fair dispatch** -- pending jobs live in per-tenant FIFO queues
  served round-robin, so one chatty tenant cannot starve the rest;
  whoever changes what can be dispatched does the dispatch -- the
  thread calling :meth:`WorkerPool.submit`, or the pump when a slot
  frees or is revived -- so an idle slot never waits for a third
  thread to be woken;
* **bounded requeues** -- a job that keeps killing workers fails with
  ``too-many-requeues`` instead of crash-looping the pool.

The pool is transport-agnostic: the asyncio daemon drives it through
:meth:`submit` and a completion callback, and the unit tests drive it
directly with plain threads.  Every state transition lands in
:attr:`WorkerPool.log`, the service ledger.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing as mp
import os
import selectors
import signal
import threading
import time
from collections import deque
from typing import Callable, Optional, Union

from .. import cache as _cache
from ..batch import SimJob
from ..obs import events_json, stream_digest
from ..obs.logutil import get_logger
from ..runtime.chassis import heartbeat_sender, join_or_terminate
from ..runtime.config import RuntimeConfig
from .jobs import job_from_spec

__all__ = [
    "JobRecord", "WorkerPool", "service_worker_main", "SERVICE_RUNTIME",
]

_log = get_logger("service.pool")

#: Jobs are abandoned after this many death-triggered re-executions.
DEFAULT_MAX_REQUEUES = 3

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
    byte-identical to an unstreamed run) while batching compact dict
    forms to the pump as ``("ev", job_id, batch)`` messages.  Send
    failures are swallowed: streaming is best-effort and must never
    fail the job itself.
    """

    BATCH = 64

    def __init__(self, send, job_id: str) -> None:
        self._send = send
        self._job_id = job_id
        self._pending: list[dict] = []
        self.events: list = []

    def __bool__(self) -> bool:
        return True

    def emit(self, event) -> None:
        self.events.append(event)
        self._pending.append(event.to_dict())
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

    def close(self) -> None:
        self.flush()


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
    pump stores the bytes, the daemon frames them.

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

    A daemon beat thread shares the pipe under a lock, so liveness
    survives arbitrarily long jobs (the same sender as
    :func:`repro.runtime.worker.worker_main`).

    Cost profiles are resolved here, by ``job.run()``, through this
    process's :mod:`repro.cache` (the fork's copy of the daemon's:
    same directory, its own memory layer).  Every ``done`` carries the
    ``(hits, misses)`` this incarnation has added to it so far; the
    pool sums them for ``status``.
    """
    send_lock = threading.Lock()
    profiles = _cache.get_cache()
    hits0, misses0 = profiles.hits, profiles.misses

    def _send(msg) -> None:
        with send_lock:
            conn.send(msg)

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


class _Handle(object):
    """One worker slot: the live process behind it may be reincarnated.

    ``record`` is written by whichever thread dispatches or finishes a
    job and ``proc`` / ``conn`` / ``incarnation`` / ``cache`` by the
    pump alone (by ``start()`` before there is a pump); every write,
    and every read off the pump thread, holds the pool lock.
    ``condemned`` is set by a dispatch whose send failed and cleared
    by the respawn: the pump retires that incarnation on its next turn,
    whatever the pipe still delivers (a heartbeat cannot clear it).
    """

    __slots__ = ("slot", "proc", "conn", "incarnation", "last_seen",
                 "record", "cache", "condemned")

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.proc = None
        self.conn = None
        self.incarnation = -1
        self.last_seen = 0.0
        self.record: Optional[JobRecord] = None
        #: ``(hits, misses)`` the live incarnation last reported.
        self.cache = (0, 0)
        self.condemned = False


class WorkerPool(object):
    """Shared multi-tenant execution pool (see module doc).

    ``on_complete(record)`` fires from the pump thread whenever a job
    reaches a terminal state; the daemon bridges it onto its event
    loop, the tests satisfy it with a plain callback.
    ``on_idle()`` fires whenever the pool transitions to fully idle
    (nothing queued, nothing running) -- the drain hook.  Only a job
    turning terminal can make that transition, so it fires there, after
    that job's ``on_complete``, and never from an idle pump turn.

    One lock covers the queues, the ledger, every slot's ``record`` and
    the use of its pipe for sending: :meth:`_dispatch_locked` runs on
    the submitting thread and on the pump, and :meth:`_revive` closes a
    dead slot's pipe and requeues its job inside one hold, so a job is
    never sent down a pipe that is being torn down and a slot never
    holds two records.
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
        self._lock = threading.Lock()
        self._wake_r, self._wake_w = os.pipe()
        #: What the pump waits on: the wake pipe (``stop()`` and a
        #: failed dispatch send), and per slot its pipe and process
        #: sentinel, re-registered only where they change
        #: (:meth:`_spawn`, :meth:`_revive`).
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._wake_r, selectors.EVENT_READ)
        self._pump: Optional[threading.Thread] = None
        self._running = False
        self._t0 = time.monotonic()
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
        if self._running:
            return self
        self._running = True
        self._t0 = time.monotonic()
        for handle in self._handles:
            self._spawn(handle)
        self._pump = threading.Thread(
            target=self._pump_loop, name="service-pool-pump", daemon=True
        )
        self._pump.start()
        return self

    def stop(self) -> None:
        """Tear the pool down (jobs still queued are left unfinished)."""
        if not self._running:
            return
        self._running = False
        self._wake()
        if self._pump is not None:
            self._pump.join(timeout=self.config.join_timeout)
        with self._lock:
            for handle in self._handles:
                conn = handle.conn
                if conn is not None:
                    try:
                        conn.send(("stop",))
                    except (OSError, ValueError, BrokenPipeError):
                        pass
                    conn.close()
                    handle.conn = None
        for handle in self._handles:
            if handle.proc is not None:
                join_or_terminate(handle.proc, self.config.join_timeout)
        self._selector.close()
        os.close(self._wake_r)
        os.close(self._wake_w)

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- submission and state ----------------------------------------------

    def submit(self, record: JobRecord) -> None:
        """Enqueue an admitted job (admission control is the server's)
        and, if a slot is idle, send it there from this thread."""
        record.submitted_at = self.now()
        with self._lock:
            queue = self._queues.get(record.tenant)
            if queue is None:
                queue = self._queues[record.tenant] = deque()
                self._rr.append(record.tenant)
            queue.append(record)
            self._records[record.job_id] = record
            self._append_log_locked(
                "submit", record, worker=None, incarnation=None
            )
            self._dispatch_locked()

    def record(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._records.get(job_id)

    def now(self) -> float:
        """Seconds since the pool started (the service clock)."""
        return time.monotonic() - self._t0

    def stats(self) -> dict:
        with self._lock:
            queued = {t: len(q) for t, q in self._queues.items() if q}
            inflight = sum(
                1 for h in self._handles if h.record is not None
            )
            return {
                "queued": sum(queued.values()),
                "queued_by_tenant": queued,
                "inflight": inflight,
                "workers": self.size,
                "workers_live": sum(
                    1
                    for h in self._handles
                    if h.proc is not None and h.proc.is_alive()
                ),
                "worker_deaths": self._worker_deaths,
            }

    def queued_for(self, tenant: str) -> int:
        with self._lock:
            queue = self._queues.get(tenant)
            return len(queue) if queue else 0

    def pending_total(self) -> int:
        """Jobs admitted but not terminal (queued + running)."""
        with self._lock:
            return self._pending_locked()

    def _pending_locked(self) -> int:
        return sum(len(q) for q in self._queues.values()) + sum(
            1 for h in self._handles if h.record is not None
        )

    def idle(self) -> bool:
        return self.pending_total() == 0

    def cache_counters(self) -> tuple[int, int]:
        """``(hits, misses)`` of the workers' cost-profile caches:
        what each live incarnation last reported, plus everything the
        dead ones had reported."""
        with self._lock:
            hits, misses = self._cache_retired
            for handle in self._handles:
                hits += handle.cache[0]
                misses += handle.cache[1]
            return hits, misses

    # -- chaos hooks ---------------------------------------------------------

    def kill_worker(self, slot: int) -> bool:
        """SIGKILL one worker slot's current incarnation (chaos hook).

        Returns False when the slot has no live process right now.  The
        pump notices the death through the process sentinel, requeues
        the victim's job, and respawns the slot.
        """
        if not 0 <= slot < self.size:
            raise ValueError(
                f"worker slot must be in [0, {self.size}), got {slot}"
            )
        handle = self._handles[slot]
        proc = handle.proc
        if proc is None or not proc.is_alive() or proc.pid is None:
            return False
        try:
            os.kill(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            # The pump reaped it between the liveness check and here.
            return False
        return True

    def worker_pids(self) -> list[Optional[int]]:
        return [
            h.proc.pid if h.proc is not None else None
            for h in self._handles
        ]

    def busy_slots(self) -> dict[int, str]:
        """``{slot: job_id}`` for slots currently executing a job."""
        with self._lock:
            return {
                h.slot: h.record.job_id
                for h in self._handles
                if h.record is not None
            }

    # -- internals -----------------------------------------------------------

    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"x")
        except OSError:  # pragma: no cover - closed during stop
            pass

    def _append_log_locked(
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
        """Fork the slot's next incarnation and publish it.

        The fork happens outside the pool lock, and another thread may
        be holding that lock (mid-dispatch) when it does: the child
        runs :func:`service_worker_main` on its own pipe end and never
        touches pool state.
        """
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
        with self._lock:
            handle.incarnation = incarnation
            handle.proc = proc
            handle.conn = parent
            handle.last_seen = time.monotonic()
            handle.condemned = False
        self._selector.register(parent, selectors.EVENT_READ, handle)
        self._selector.register(
            proc.sentinel, selectors.EVENT_READ, handle
        )
        _log.info(
            "spawned worker slot=%d incarnation=%d pid=%s",
            handle.slot, incarnation, proc.pid,
        )

    def _pump_loop(self) -> None:
        with self._lock:
            self._dispatch_locked()  # whatever was queued before start()
        while self._running:
            ready = self._selector.select(self.config.wait_bound(
                [h.last_seen for h in self._handles if h.proc is not None],
                time.monotonic(),
            ))
            if not self._running:
                return
            dead: list[_Handle] = []
            for key, _mask in ready:
                handle = key.data
                if handle is None:
                    # The wake pipe: empty it, or it stays readable and
                    # every later select returns at once.
                    os.read(self._wake_r, 4096)
                    continue
                if key.fileobj is handle.conn:
                    if not self._drain_conn(handle):
                        dead.append(handle)
                elif not handle.proc.is_alive():
                    dead.append(handle)
            live = [
                h for h in self._handles
                if h not in dead and h.proc is not None
            ]
            silent = self.config.overdue(
                {h.slot: h.last_seen for h in live}, time.monotonic()
            )
            for handle in live:
                if not handle.proc.is_alive():
                    dead.append(handle)
                elif handle.condemned or handle.slot in silent:
                    # Condemned by a failed send, or silent past the
                    # liveness deadline: treat as dead.  SIGKILL first
                    # so a wedged-but-alive incarnation can never
                    # deliver a stale result later.
                    if handle.proc.pid is not None:
                        try:
                            os.kill(handle.proc.pid, signal.SIGKILL)
                        except ProcessLookupError:  # pragma: no cover
                            pass
                    dead.append(handle)
            for handle in {id(h): h for h in dead}.values():
                self._revive(handle)

    def _drain_conn(self, handle: _Handle) -> bool:
        """Pull every pending message from a pipe the selector reported
        readable; False when the pipe is dead."""
        conn = handle.conn
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                return False
            handle.last_seen = time.monotonic()
            if msg[0] == "ev":
                self._handle_events(handle, msg[1], msg[2])
            elif msg[0] == "done":
                self._handle_done(handle, *msg[1:])
            try:
                if not conn.poll(0):
                    return True
            except OSError:
                return False

    def _handle_events(
        self, handle: _Handle, job_id: str, batch: list
    ) -> None:
        """Chunk-level events streamed mid-run by a worker.

        The same freshness rule as results applies: only the delivery
        the ledger currently expects from this slot counts (a dead
        incarnation's pipe is closed in :meth:`_revive` before its job
        is requeued, so stale batches cannot arrive at all; this guard
        covers the pipe-buffer race on the same connection).
        """
        record = handle.record
        if record is None or record.job_id != job_id:
            return
        self.on_events(record, batch)

    def _handle_done(
        self, handle: _Handle, job_id: str,
        digest: Optional[str], body: bytes, cache: tuple[int, int],
    ) -> None:
        with self._lock:
            handle.cache = cache
            record = handle.record
            if record is None or record.job_id != job_id \
                    or record.incarnation != handle.incarnation:
                # Incarnation guard: a delivery the ledger no longer
                # expects (job already requeued elsewhere) is dropped,
                # never double-counted.
                stale = self._records.get(job_id)
                if stale is not None:
                    self._append_log_locked(
                        "stale-result", stale,
                        worker=handle.slot,
                        incarnation=handle.incarnation,
                    )
                _log.warning(
                    "dropped stale result for job %s from slot %d",
                    job_id, handle.slot,
                )
                return
            handle.record = None
            record.finish(self.now(), digest, body)
            self._append_log_locked(
                "result" if digest is not None else "error",
                record,
                worker=handle.slot,
                incarnation=handle.incarnation,
            )
            self._dispatch_locked()  # the slot this freed
            idle = self._pending_locked() == 0
        self.on_complete(record)
        if idle:
            self.on_idle()

    def _revive(self, handle: _Handle) -> None:
        """A worker incarnation died: requeue its job, respawn the slot."""
        victim: Optional[JobRecord] = None
        idle = False
        with self._lock:
            # Closing the pipe, taking the job back and requeueing it
            # are one step to any dispatching thread: it sees the slot
            # busy or gone, never a pipe that is being torn down.
            if handle.conn is not None:
                self._selector.unregister(handle.conn)
                handle.conn.close()
                handle.conn = None
            self._cache_retired[0] += handle.cache[0]
            self._cache_retired[1] += handle.cache[1]
            handle.cache = (0, 0)
            record = handle.record
            handle.record = None
            if record is not None:
                self._append_log_locked(
                    "worker-death", record,
                    worker=handle.slot, incarnation=handle.incarnation,
                )
                self._worker_deaths += 1
                record.requeues += 1
                if record.requeues > self.max_requeues:
                    record.finish(self.now(), None, _error_body(
                        f"too-many-requeues: job killed "
                        f"{record.requeues} worker incarnations"
                    ))
                    self._append_log_locked(
                        "error", record,
                        worker=handle.slot, incarnation=handle.incarnation,
                    )
                    victim = record
                    idle = self._pending_locked() == 0
                else:
                    record.state = "queued"
                    record.worker = -1
                    record.incarnation = -1
                    self._append_log_locked(
                        "requeue", record,
                        worker=handle.slot, incarnation=handle.incarnation,
                    )
                    # Head of its tenant's queue: a faulted job keeps
                    # its place in line (FIFO requeue, like the
                    # runtime master's interval requeue).
                    self._queues.setdefault(
                        record.tenant, deque()
                    ).appendleft(record)
                    if record.tenant not in self._rr:
                        self._rr.append(record.tenant)
                    # Another slot may be idle right now.
                    self._dispatch_locked()
        if handle.proc is not None:
            self._selector.unregister(handle.proc.sentinel)
            handle.proc.join(timeout=1.0)
        _log.warning(
            "worker slot=%d incarnation=%d died%s",
            handle.slot, handle.incarnation,
            "" if record is None else " (job requeued or failed)",
        )
        if victim is not None:
            self.on_complete(victim)
            if idle:
                self.on_idle()
        if self._running:
            self._spawn(handle)
            with self._lock:
                self._dispatch_locked()  # the slot this revived

    def _dispatch_locked(self) -> None:
        """Hand queued jobs to idle workers, round-robin over tenants.

        The one place a job is sent to a worker.  Runs on the thread
        that made a dispatch possible -- :meth:`submit`'s caller for a
        new job, the pump for a freed or revived slot -- always inside
        the pool lock, so choosing the slot, marking it busy, the
        ledger's ``assign`` and the send cannot interleave with another
        dispatch or with :meth:`_revive` closing the pipe.
        """
        while True:
            idle = next(
                (
                    h for h in self._handles
                    if h.record is None and h.conn is not None
                    and h.proc is not None and h.proc.is_alive()
                ),
                None,
            )
            if idle is None:
                return
            record = self._next_record_locked()
            if record is None:
                return
            record.state = "running"
            record.worker = idle.slot
            record.incarnation = idle.incarnation
            record.started_at = self.now()
            idle.record = record
            self._append_log_locked(
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
                # The slot died between the liveness check and the
                # send (or its pipe cannot take the job): wake the
                # pump, whose turn retires the incarnation and
                # requeues the record.
                idle.condemned = True
                self._wake()

    def _next_record_locked(self) -> Optional[JobRecord]:
        for _ in range(len(self._rr)):
            tenant = self._rr[0]
            self._rr.rotate(-1)
            queue = self._queues.get(tenant)
            if queue:
                return queue.popleft()
        return None
