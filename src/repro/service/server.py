"""The asyncio scheduling daemon: many tenants, one shared pool.

:class:`ServiceServer` listens on a Unix-domain socket (or TCP), speaks
the :mod:`repro.service.protocol` frame format, and multiplexes every
tenant's loop jobs over one shared :class:`~repro.service.pool.
WorkerPool`.  The production concerns, in the order a job meets them:

* **admission control** -- an admitted-but-unfinished job count is
  bounded by ``queue_capacity`` globally and ``tenant_capacity`` per
  tenant.  Past either bound a submit is *rejected* with a reasoned
  backpressure reply (``queue-full`` / ``tenant-quota``) -- the queue
  never grows without bound, so memory stays bounded no matter how
  hard a client hammers the socket;
* **warm cache sharing** -- admission validates a spec and computes
  nothing; the pool worker that runs a job resolves its workload's
  cost profile through :mod:`repro.cache` (its own memory layer, then
  the on-disk store the daemon configured before forking the pool),
  so a profile is computed once per machine and read from disk once
  per worker process, whichever tenant asks;
* **fair dispatch** -- per-tenant FIFO queues served round-robin
  (see :mod:`repro.service.pool`);
* **exactly-once execution** -- heartbeat/deadline death detection
  plus incarnation guards, audited from the ledger by
  :func:`repro.verify.audit_service_log`;
* **graceful drain** -- SIGTERM (or the ``drain`` op) stops admission
  (rejects carry ``draining``), lets everything already admitted
  finish, answers the waiting clients, then shuts the listener down;
* **observability** -- every job lifecycle lands in per-tenant
  job-level :class:`~repro.obs.ObsEvent` streams (kinds
  ``job-submit`` / ``job-assign`` / ``job-result`` / ``job-reject``,
  source ``service``) and in a :class:`~repro.obs.MetricsRegistry`
  served by the ``metrics`` op -- the ``/metrics`` snapshot.

* **live telemetry** -- a ``subscribe`` (alias ``watch``) op turns a
  connection into a push stream: chunk-level ObsEvents forwarded from
  the pool workers mid-run, job-level lifecycle events, per-subscriber
  bounded queues with explicit drop accounting (a slow watcher can
  never block the pool or another tenant), and rolling time-series
  gauges (:class:`repro.obs.timeseries.RollingMetrics`) in the
  ``metrics`` snapshot.

Protocol ops (every request may carry a ``seq`` echoed in the reply):
``hello``, ``submit``, ``wait``, ``status``, ``metrics``, ``trace``,
``log``, ``drain``, ``chaos``, ``kill-worker``, ``ping``,
``subscribe`` / ``watch``.  Each connection is one
:class:`asyncio.Protocol` that answers its frames in request order; a
``wait`` on a running job holds the frames behind it until it is
answered (see :class:`_Connection`).

The daemon is one thread.  Its event loop serves the connections and
drives the pool too: the pool reads its workers' pipes and sentinels
as loop readers and calls :meth:`ServiceServer._on_complete`,
``_on_events`` and ``_check_drained`` directly, on the loop.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import itertools
import json
import math
import signal as _signal
from typing import Any, Optional, Union, cast

from .. import cache as _cache
from ..obs import (
    BufferedCollector,
    MetricsRegistry,
    ObsEvent,
    RollingMetrics,
)
from ..obs.logutil import get_logger
from ..runtime.config import RuntimeConfig
from .jobs import JobSpecError, _spec_number, job_from_spec
from .pool import SERVICE_RUNTIME, JobRecord, WorkerPool
from .protocol import (
    OPS,
    FrameDecoder,
    ProtocolError,
    encode_frame,
    frame_payload,
)

__all__ = ["ServiceConfig", "ServiceServer", "serve_until_complete"]

_log = get_logger("service.server")

#: Event source tag for job-level lifecycle events.
_SRC = "service"

#: Bounded per-subscriber queue: a watcher that cannot keep up loses
#: event batches (counted in its ``drops``) instead of backpressuring
#: the pool or the other tenants.
SUBSCRIBER_QUEUE = 256

#: Width (seconds of service clock) of the rolling telemetry window.
ROLLING_WINDOW = 60.0

#: Bytes a held connection may buffer before its transport stops
#: reading (the request it holds on is answered first).
READ_LIMIT = 64 * 1024

#: Seconds shutdown lets the closing connections flush their replies.
FLUSH_TIMEOUT = 5.0


class _Subscription(object):
    """One live watcher: a tenant filter and a bounded frame queue."""

    __slots__ = ("tenant", "queue", "drops", "n")

    def __init__(self, tenant: Optional[str]) -> None:
        self.tenant = tenant  # None means every tenant
        self.queue: asyncio.Queue = asyncio.Queue(
            maxsize=SUBSCRIBER_QUEUE
        )
        self.drops = 0   # cumulative events lost to the bound
        self.n = 0       # monotone stream-frame counter

    def wants(self, tenant: str) -> bool:
        return self.tenant is None or self.tenant == tenant


@dataclasses.dataclass(frozen=True)
class ServiceConfig(object):
    """Daemon knobs: transport, pool shape, and admission bounds.

    Exactly one transport is used: ``socket_path`` (Unix socket, the
    default) unless ``host`` is set (TCP).  ``runtime`` reuses the
    runtime's validated timing knobs for the pool's heartbeat /
    deadline machinery (default: :data:`~repro.service.pool.
    SERVICE_RUNTIME`).
    """

    socket_path: Optional[str] = None
    host: Optional[str] = None
    port: int = 0
    workers: int = 2
    queue_capacity: int = 64
    tenant_capacity: int = 16
    max_requeues: int = 3
    cache_dir: Optional[str] = None
    runtime: RuntimeConfig = SERVICE_RUNTIME

    def __post_init__(self) -> None:
        if self.socket_path is None and self.host is None:
            raise ValueError(
                "ServiceConfig needs a socket_path (Unix) or host (TCP)"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.tenant_capacity < 1:
            raise ValueError(
                f"tenant_capacity must be >= 1, got "
                f"{self.tenant_capacity}"
            )


class ServiceServer(object):
    """One running daemon (see module doc).  Drive via :meth:`serve`,
    or :meth:`start` / :meth:`shutdown` from an existing event loop."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.pool = WorkerPool(
            size=config.workers,
            config=config.runtime,
            on_complete=self._on_complete,
            on_idle=self._check_drained,
            on_events=self._on_events,
            max_requeues=config.max_requeues,
        )
        self.metrics = MetricsRegistry()
        #: Rolling time-series windows keyed on the service clock.
        self.rolling = RollingMetrics(width=ROLLING_WINDOW)
        #: Per-tenant job-level event streams (the merged view is
        #: :meth:`events_for`).
        self.tenant_obs: dict[str, BufferedCollector] = {}
        #: Merged-view cache: per-tenant append indices + the sorted
        #: merge so repeated polls are incremental, not O(total).
        self._merged: list[ObsEvent] = []
        self._merged_idx: dict[str, int] = {}
        self._subscribers: list[_Subscription] = []
        self._stream_tasks: set[asyncio.Task] = set()
        self._connections: set[_Connection] = set()
        self._records: dict[str, JobRecord] = {}
        self._futures: dict[str, asyncio.Future] = {}
        self._ids = itertools.count(1)
        self._tenant_pending: dict[str, int] = {}
        self.draining = False
        self._drained = asyncio.Event()
        self._server: Optional[asyncio.base_events.Server] = None
        self._chaos_tasks: list[asyncio.Task] = []

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start the pool on this loop."""
        loop = asyncio.get_running_loop()
        if self.config.cache_dir is not None:
            _cache.configure(directory=self.config.cache_dir)
        self.pool.start()
        factory = functools.partial(_Connection, self)
        if self.config.host is not None:
            self._server = await loop.create_server(
                factory, self.config.host, self.config.port,
            )
        else:
            self._server = await loop.create_unix_server(
                factory, path=self.config.socket_path
            )
        _log.info(
            "repro-service listening on %s (%d workers, capacity %d)",
            self.address, self.config.workers,
            self.config.queue_capacity,
        )

    @property
    def address(self) -> str:
        if self.config.host is not None:
            socks = self._server.sockets if self._server else []
            if socks:
                host, port = socks[0].getsockname()[:2]
                return f"{host}:{port}"
            return f"{self.config.host}:{self.config.port}"
        return str(self.config.socket_path)

    @property
    def port(self) -> Optional[int]:
        """Bound TCP port (None on Unix sockets); useful with port=0."""
        if self.config.host is None or not self._server:
            return None
        return self._server.sockets[0].getsockname()[1]

    async def serve(self, install_signals: bool = True) -> None:
        """Run until drained (SIGTERM or the ``drain`` op)."""
        await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for sig in (_signal.SIGTERM, _signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, self.initiate_drain)
                except (NotImplementedError, RuntimeError):
                    pass  # non-main thread or exotic loop
        await self._drained.wait()
        await self.shutdown()

    def initiate_drain(self) -> None:
        """Stop admitting; finish everything admitted; then exit."""
        if self.draining:
            return
        self.draining = True
        _log.info("drain initiated: admission closed")
        self._check_drained()

    async def shutdown(self) -> None:
        """Close the listener and the connections, and stop the pool
        (hard stop)."""
        for sub in self._subscribers:  # the terminal frame
            try:
                sub.queue.put_nowait(None)
            except asyncio.QueueFull:
                # Full queue: the watcher is hopelessly behind; the
                # connection teardown will cancel its writer task.
                pass
        if self._stream_tasks:
            # Let the writer tasks flush their terminal frames; a
            # wedged peer cannot hold shutdown beyond the timeout.
            await asyncio.wait(set(self._stream_tasks), timeout=1.0)
        for task in self._chaos_tasks:
            task.cancel()
        if self._server is not None:
            self._server.close()
            conns = list(self._connections)
            for conn in conns:
                conn.transport.close()
            if conns:
                # A closing transport first flushes what it holds (a
                # job's reply may be megabytes); a peer that stopped
                # reading cannot hold shutdown beyond the timeout.
                await asyncio.wait(
                    [conn.closed for conn in conns],
                    timeout=FLUSH_TIMEOUT,
                )
                for conn in conns:
                    if not conn.closed.done():
                        conn.transport.abort()
            await self._server.wait_closed()
            self._server = None
        self.pool.stop()

    # -- pool callbacks (on the loop) --------------------------------------

    def _on_complete(self, record: JobRecord) -> None:
        self._tenant_pending[record.tenant] = max(
            0, self._tenant_pending.get(record.tenant, 1) - 1
        )
        ok = record.state == "done"
        self.metrics.counter(
            "jobs_completed_total" if ok else "jobs_failed_total"
        ).inc()
        self.metrics.counter(f"tenant:{record.tenant}:completed").inc()
        if record.requeues:
            self.metrics.counter("jobs_requeued_total").inc(
                record.requeues
            )
        run = None  # a job that never started failed in the queue
        if record.started_at is not None:
            run = record.finished_at - record.started_at
            self.metrics.histogram("queue_wait_seconds").observe(
                record.started_at - record.submitted_at
            )
            self.metrics.histogram("run_seconds").observe(run)
        self._emit(
            record.tenant,
            ObsEvent(
                kind="job-result" if ok else "job-reject",
                source=_SRC,
                t=record.finished_at,
                worker=record.worker,
                value=run,
                detail=f"tenant={record.tenant} job={record.job_id}"
                + ("" if ok else " failed"),
            ),
        )
        future = self._futures.pop(record.job_id, None)
        if future is not None and not future.done():
            future.set_result(record)

    def _check_drained(self) -> None:
        if self.draining and self.pool.idle():
            self._drained.set()

    def _on_events(self, record: JobRecord, batch: list) -> None:
        """Chunk-level ``ObsEvent`` objects a worker streamed mid-run.

        They join the tenant's server-side trace (so the trace op and
        the subscription stream describe the same events), feed the
        rolling windows at *receive* time (per-job sim clocks all
        start at 0 and would collide), and fan out to subscribers.
        """
        at = self.pool.now()
        for ev in batch:
            self._record_event(record.tenant, ev)
            self.rolling.observe(ev, at=at)
        self.metrics.counter("stream_events_total").inc(len(batch))
        self._publish(record.tenant, batch, job_id=record.job_id)

    def _record_event(self, tenant: str, event: ObsEvent) -> None:
        bucket = self.tenant_obs.get(tenant)
        if bucket is None:
            bucket = self.tenant_obs[tenant] = BufferedCollector()
        bucket.emit(event)

    def _emit(self, tenant: str, event: ObsEvent) -> None:
        """Record a job-level event and push it to live watchers."""
        self._record_event(tenant, event)
        self.rolling.observe(event, at=self.pool.now())
        if self._subscribers:
            self._publish(tenant, [event])

    def _publish(
        self, tenant: str, batch: list, job_id: Optional[str] = None
    ) -> None:
        """Fan one event batch out to every matching subscriber.

        The batch's dict forms are built once, for the first
        subscriber that wants the tenant, and shared.  ``put_nowait``
        against the bounded queue: a full (slow) subscriber loses the
        batch and its ``drops`` counter grows -- the pool and the other
        watchers never wait.
        """
        item: Optional[dict[str, Any]] = None
        for sub in self._subscribers:
            if not sub.wants(tenant):
                continue
            if item is None:
                item = {
                    "tenant": tenant,
                    "events": [ev.to_dict() for ev in batch],
                }
                if job_id is not None:
                    item["job"] = job_id
            try:
                sub.queue.put_nowait(item)
            except asyncio.QueueFull:
                sub.drops += len(batch)
                self.metrics.counter("stream_drops_total").inc(
                    len(batch)
                )

    def events_for(self, tenant: Optional[str] = None) -> list[ObsEvent]:
        """One tenant's event stream, or every tenant's merged.

        The merged view is maintained incrementally: per-tenant append
        indices track what has already been folded in, so a poll after
        k new events costs O(k log k) amortized (timsort over a
        mostly-sorted list), not O(total).  The returned list is
        shared with the cache on the merged path -- treat it as
        read-only.
        """
        if tenant is not None:
            bucket = self.tenant_obs.get(tenant)
            return list(bucket.events) if bucket is not None else []
        fresh = 0
        for name in sorted(self.tenant_obs):
            events = self.tenant_obs[name].events
            idx = self._merged_idx.get(name, 0)
            if idx < len(events):
                self._merged.extend(events[idx:])
                fresh += len(events) - idx
                self._merged_idx[name] = len(events)
        if fresh:
            self._merged.sort(key=lambda ev: ev.t)
        return self._merged

    # -- admission ----------------------------------------------------------

    def _admission_error(self, tenant: str) -> Optional[str]:
        if self.draining:
            return "draining"
        if self.pool.pending_total() >= self.config.queue_capacity:
            return "queue-full"
        if self._tenant_pending.get(tenant, 0) \
                >= self.config.tenant_capacity:
            return "tenant-quota"
        return None

    def _reject(self, tenant: str, reason: str, seq) -> dict:
        self.metrics.counter("jobs_rejected_total").inc()
        self.metrics.counter(f"jobs_rejected_{reason}").inc()
        self._emit(
            tenant,
            ObsEvent(
                kind="job-reject",
                source=_SRC,
                t=self.pool.now(),
                detail=f"tenant={tenant} {reason}",
            ),
        )
        return _reply(seq, ok=False, error=reason)

    def _submit(self, tenant: str, doc: dict, seq) -> dict:
        """Admit or refuse one job.  No suspension point: the admission
        test, the bookkeeping and the hand-over to the pool (which
        sends the job to an idle worker at once) are one step of the
        event loop."""
        reason = self._admission_error(tenant)
        if reason is not None:
            return self._reject(tenant, reason, seq)
        spec = doc.get("job")
        try:
            # Validation only: the pool worker builds the job again
            # from the same spec, exactly as a one-shot run would.
            job = job_from_spec(spec)
        except JobSpecError as exc:
            self.metrics.counter("jobs_rejected_total").inc()
            self.metrics.counter("jobs_rejected_bad-spec").inc()
            return _reply(seq, ok=False, error="bad-spec",
                          message=str(exc))
        job_id = f"{tenant}-{next(self._ids):06d}"
        record = JobRecord(
            job_id=job_id,
            tenant=tenant,
            job=spec,
            want_results=bool(spec.get("results")),
            want_trace=bool(spec.get("trace")),
            # Stream chunk events when the spec asks for it or when a
            # live subscriber is already watching this tenant.  (The
            # flag does not enter the job's identity/cache key, and the
            # streamed events are the same objects the digest is
            # computed from -- the bit-exactness contract holds.)
            want_stream=bool(spec.get("stream"))
            or any(sub.wants(tenant) for sub in self._subscribers),
        )
        self._records[job_id] = record
        self._futures[job_id] = asyncio.get_running_loop() \
            .create_future()
        self._tenant_pending[tenant] = (
            self._tenant_pending.get(tenant, 0) + 1
        )
        self.metrics.counter("jobs_submitted_total").inc()
        self.metrics.counter(f"tenant:{tenant}:submitted").inc()
        self._emit(
            tenant,
            ObsEvent(
                kind="job-submit",
                source=_SRC,
                t=self.pool.now(),
                detail=f"tenant={tenant} job={job_id} "
                       f"scheme={job.scheme}",
            ),
        )
        self._emit(
            tenant,
            ObsEvent(
                kind="job-assign",
                source=_SRC,
                t=self.pool.now(),
                detail=f"tenant={tenant} job={job_id}",
            ),
        )
        self.pool.submit(record)
        return _reply(seq, ok=True, job_id=job_id)

    # -- query ops -----------------------------------------------------------

    def _status(self) -> dict:
        stats = self.pool.stats()
        states: dict[str, int] = {}
        for record in self._records.values():
            states[record.state] = states.get(record.state, 0) + 1
        hits, misses = self.pool.cache_counters()
        return {
            "draining": self.draining,
            "pool": stats,
            "jobs": states,
            "capacity": {
                "queue": self.config.queue_capacity,
                "tenant": self.config.tenant_capacity,
            },
            "cache": {"hits": hits, "misses": misses},
        }

    def _metrics_snapshot(self) -> dict:
        stats = self.pool.stats()
        self.metrics.gauge("jobs_queued").set(stats["queued"])
        self.metrics.gauge("jobs_inflight").set(stats["inflight"])
        self.metrics.gauge("workers_live").set(stats["workers_live"])
        self.metrics.gauge("tenants").set(len(self.tenant_obs))
        hits, misses = self.pool.cache_counters()
        self.metrics.gauge("cache_hits").set(hits)
        self.metrics.gauge("cache_misses").set(misses)
        self.metrics.counter("worker_deaths_total").value = float(
            stats["worker_deaths"]
        )
        self.metrics.gauge("stream_subscribers").set(
            len(self._subscribers)
        )
        rolling = self.rolling.snapshot(now=self.pool.now())
        for name in (
            "chunk_rate", "iteration_rate", "result_rate",
            "fault_rate", "job_rate", "utilization", "imbalance",
            "busy_sigma",
        ):
            self.metrics.gauge(f"rolling_{name}").set(rolling[name])
        return self.metrics.snapshot()

    # -- chaos ----------------------------------------------------------------

    def inject_chaos(self, plan, time_scale: float = 1.0) -> int:
        """Map a FaultPlan's worker deaths onto live pool slots.

        Delegates to :func:`repro.chaos.inject_service_faults`;
        returns the number of scheduled fault tasks.
        """
        from ..chaos import inject_service_faults

        tasks = inject_service_faults(
            self, plan, time_scale=time_scale
        )
        self._chaos_tasks.extend(tasks)
        return len(tasks)

    # -- connections ----------------------------------------------------------

    def _chaos_op(self, doc: dict, seq) -> dict:
        from ..chaos import ChaosError, FaultPlan

        try:
            plan = FaultPlan.from_json(doc.get("plan") or {})
            count = self.inject_chaos(
                plan, time_scale=_wire_number(doc, "time_scale", 1.0)
            )
        except (ChaosError, TypeError, KeyError, ValueError,
                OverflowError) as exc:
            return _reply(seq, ok=False, error="bad-plan",
                          message=str(exc))
        return _reply(seq, ok=True, scheduled=count)

    def _wait_reply(self, record: JobRecord, seq) -> Union[dict, bytes]:
        """A terminal job's ``wait`` reply: its whole frame, or a dict
        when that frame would outgrow ``MAX_FRAME``."""
        envelope = _reply(
            seq,
            ok=record.state == "done",
            job_id=record.job_id,
            state=record.state,
            requeues=record.requeues,
        )
        body = record.body
        assert body is not None  # a terminal record has one
        # The job's members were encoded where it ran; they and the
        # envelope are two objects with no key in common, so one brace
        # less makes them one.
        head = json.dumps(envelope, separators=(",", ":")).encode("utf-8")
        try:
            return frame_payload(head[:-1] + b"," + body[1:])
        except ProtocolError as exc:
            envelope.update(
                ok=False, error="reply-too-large", message=str(exc),
                digest=record.digest,
            )
            return envelope


class _HeldWait(object):
    """A ``wait`` on a running job, holding its connection.

    Answered by whichever comes first: the job future's done-callback
    (the job's reply) or the ``call_later`` timer (a ``timeout``
    reply).  Either way the other is withdrawn, and the shared future
    -- other connections may be waiting on the same job -- is never
    cancelled.
    """

    __slots__ = ("conn", "record", "seq", "future", "timer")

    def __init__(
        self,
        conn: "_Connection",
        record: JobRecord,
        seq,
        future: asyncio.Future,
        timeout: Optional[float],
    ) -> None:
        self.conn = conn
        self.record = record
        self.seq = seq
        self.future = future
        future.add_done_callback(self.finished)
        self.timer = (
            future.get_loop().call_later(timeout, self.expired)
            if timeout is not None else None
        )

    def finished(self, _future: asyncio.Future) -> None:
        self.conn.release(
            self, self.conn.server._wait_reply(self.record, self.seq)
        )

    def expired(self) -> None:
        self.conn.release(self, _reply(
            self.seq, ok=False, error="timeout", state=self.record.state,
        ))

    def withdraw(self) -> None:
        self.future.remove_done_callback(self.finished)
        if self.timer is not None:
            self.timer.cancel()


class _Connection(asyncio.Protocol):
    """One client connection: frames in, replies out, in request order.

    ``data_received`` buffers bytes in a :class:`FrameDecoder` and
    answers every whole frame synchronously, in order.  Two things stop
    that loop, leaving the later frames buffered: a ``wait`` on a
    running job (a :class:`_HeldWait`, answered from the job's
    completion or its timeout) and a transport write buffer over its
    high-water mark (``pause_writing`` .. ``resume_writing``).  While
    either holds and more than :data:`READ_LIMIT` bytes are buffered,
    the transport stops reading, so a client that pipelines requests
    cannot grow the daemon's memory.

    After ``subscribe`` the connection also carries pushed stream
    frames, written by one task per subscription under the same write
    flow control: a watcher that does not read fills its bounded queue
    and loses batches (counted), never the daemon's memory.
    """

    transport: asyncio.Transport  # set by connection_made

    def __init__(self, server: ServiceServer) -> None:
        self.server = server
        self.tenant = "default"
        self._decoder = FrameDecoder()
        self._held: Optional[_HeldWait] = None
        self._write_paused = False
        self._read_paused = False
        #: Set by ``resume_writing`` for a stream task waiting on it.
        self._writable: Optional[asyncio.Future] = None
        self._eof = False
        self._subscription: Optional[_Subscription] = None
        self._stream_task: Optional[asyncio.Task] = None
        #: Done once the transport is gone (shutdown waits on it).
        self.closed: asyncio.Future = asyncio.get_running_loop() \
            .create_future()

    # -- asyncio.Protocol -----------------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = cast(asyncio.Transport, transport)
        self.server._connections.add(self)

    def data_received(self, data: bytes) -> None:
        self._decoder.append(data)
        self._serve_frames()
        if (self._held is not None or self._write_paused) \
                and not self._read_paused \
                and self._decoder.pending_bytes > READ_LIMIT:
            self._read_paused = True
            self.transport.pause_reading()

    def eof_received(self) -> bool:
        self._eof = True
        self._serve_frames()
        # Keep the transport: a held ``wait`` still owes its reply.
        # ``_serve_frames`` closes it once every whole frame is answered.
        return True

    def pause_writing(self) -> None:
        self._write_paused = True

    def resume_writing(self) -> None:
        self._write_paused = False
        waiter, self._writable = self._writable, None
        if waiter is not None and not waiter.done():
            waiter.set_result(None)
        self._serve_frames()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        server = self.server
        server._connections.discard(self)
        self.closed.set_result(None)
        if self._held is not None:
            self._held.withdraw()
            self._held = None
        if self._subscription is not None:
            server._subscribers.remove(self._subscription)
        if self._stream_task is not None:
            self._stream_task.cancel()

    # -- requests -------------------------------------------------------------

    def _serve_frames(self) -> None:
        """Answer buffered frames in order until one has to wait."""
        transport = self.transport
        while self._held is None and not self._write_paused:
            if transport.is_closing():
                return
            try:
                doc = self._decoder.pop()
            except ProtocolError as exc:
                self._refuse(str(exc))
                return
            if doc is None:
                self._caught_up()
                return
            self._answer(doc)

    def _caught_up(self) -> None:
        """Every whole frame is answered and nothing holds the
        connection: read again, and finish a connection at EOF."""
        transport = self.transport
        if self._read_paused:
            self._read_paused = False
            transport.resume_reading()
        if self._eof:
            pending = self._decoder.pending_bytes
            if pending:
                self._refuse(
                    f"connection closed mid-frame ({pending} bytes "
                    f"buffered)"
                )
            else:
                transport.close()

    def _refuse(self, message: str) -> None:
        """One ``protocol`` error reply, then the connection closes."""
        self._send(_reply(None, ok=False, error="protocol",
                          message=message))
        self.transport.close()

    def release(self, held: _HeldWait, reply: Union[dict, bytes]) -> None:
        """Answer a held ``wait`` and serve the frames behind it."""
        if self._held is not held:
            return  # withdrawn: the connection went, or the other won
        self._held = None
        held.withdraw()
        self._send(reply, held.seq)
        self._serve_frames()

    def _send(self, reply: Union[dict, bytes], seq=None) -> None:
        try:
            frame = (
                reply if isinstance(reply, bytes) else encode_frame(reply)
            )
        except ProtocolError as exc:
            # E.g. the ``trace`` of a tenant that streamed a few
            # hundred thousand chunk events.
            frame = encode_frame(_reply(
                seq, ok=False, error="reply-too-large", message=str(exc),
            ))
        self.transport.write(frame)

    def _answer(self, doc: dict) -> None:
        server = self.server
        seq = doc.get("seq")
        op = doc.get("op")
        reply: Union[dict, bytes]
        if op == "hello":
            raw = doc.get("tenant", "default")
            self.tenant = str(raw) if raw else "default"
            reply = _reply(
                seq, ok=True, server="repro-service",
                tenant=self.tenant, workers=server.config.workers,
            )
        elif op == "submit":
            reply = server._submit(self.tenant, doc, seq)
        elif op == "wait":
            waited = self._wait(doc, seq)
            if waited is None:
                return  # held: answered when the job ends or times out
            reply = waited
        elif op == "status":
            reply = _reply(seq, ok=True, status=server._status())
        elif op == "metrics":
            reply = _reply(
                seq, ok=True, metrics=server._metrics_snapshot()
            )
        elif op == "trace":
            which = doc.get("tenant", self.tenant)
            events = server.events_for(
                None if which == "*" else str(which)
            )
            reply = _reply(
                seq, ok=True, events=[ev.to_dict() for ev in events],
            )
        elif op == "log":
            reply = _reply(seq, ok=True, log=list(server.pool.log))
        elif op == "drain":
            server.initiate_drain()
            reply = _reply(seq, ok=True, draining=True)
        elif op == "chaos":
            reply = server._chaos_op(doc, seq)
        elif op == "kill-worker":
            try:
                hit = server.pool.kill_worker(
                    int(_wire_number(doc, "worker", -1))
                )
                reply = _reply(seq, ok=True, killed=hit)
            except ValueError as exc:
                reply = _reply(seq, ok=False, error="bad-worker",
                               message=str(exc))
        elif op == "ping":
            reply = _reply(seq, ok=True, pong=True)
        elif op in ("subscribe", "watch"):
            reply = self._subscribe(doc, seq)
        else:
            reply = _reply(
                seq, ok=False, error="unknown-op",
                message=f"unknown op {op!r}; valid ops: "
                        f"{', '.join(sorted(OPS))}",
            )
        self._send(reply, seq)

    def _wait(self, doc: dict, seq) -> Union[dict, bytes, None]:
        """The ``wait`` reply, or ``None`` once the connection is held
        for a job that is still running."""
        server = self.server
        try:
            timeout = (
                _wire_number(doc, "timeout", 0.0)
                if doc.get("timeout") else None
            )
        except ValueError as exc:
            return _reply(seq, ok=False, error="bad-timeout",
                          message=str(exc))
        job_id = doc.get("job_id")
        record = (
            server._records.get(job_id) if isinstance(job_id, str)
            else None
        )
        if record is None or record.tenant != self.tenant:
            # Tenant isolation: another tenant's job ids are
            # indistinguishable from nonexistent ones.
            return _reply(seq, ok=False, error="unknown-job")
        future = server._futures.get(job_id)
        if future is None or record.terminal:
            return server._wait_reply(record, seq)
        if timeout is not None and timeout <= 0:
            return _reply(seq, ok=False, error="timeout",
                          state=record.state)
        self._held = _HeldWait(self, record, seq, future, timeout)
        return None

    # -- live telemetry ------------------------------------------------------

    def _subscribe(self, doc: dict, seq) -> dict:
        if self._subscription is not None:
            return _reply(seq, ok=False, error="already-subscribed")
        server = self.server
        raw = doc.get("tenant", self.tenant)
        sub = self._subscription = _Subscription(
            None if raw == "*" else str(raw)
        )
        server._subscribers.append(sub)
        server.metrics.counter("subscriptions_total").inc()
        task = self._stream_task = asyncio.get_running_loop() \
            .create_task(self._stream_to(sub))
        server._stream_tasks.add(task)
        task.add_done_callback(server._stream_tasks.discard)
        return _reply(
            seq, ok=True, subscribed=True, tenant=raw,
            queue_capacity=SUBSCRIBER_QUEUE,
        )

    async def _stream_to(self, sub: _Subscription) -> None:
        """Push queued event batches to this subscriber until told to
        stop (a ``None`` sentinel) or the peer goes away.

        Every frame carries the subscription's monotone ``n`` and its
        *cumulative* ``drops``, so a reader can both order frames and
        see exactly how much it missed at any point; the sentinel
        produces a final ``{"watch": "end"}`` frame with the closing
        totals.  A frame waits for the transport to take it
        (``resume_writing``) while the queue behind it fills.  The
        connection cancels this task when its peer goes away.
        """
        while True:
            item = await sub.queue.get()
            sub.n += 1
            if item is None:
                frame: dict[str, Any] = {"watch": "end"}
            else:
                frame = {"watch": "events", **item}
            frame["n"] = sub.n
            frame["drops"] = sub.drops
            if self._write_paused:
                self._writable = asyncio.get_running_loop() \
                    .create_future()
                await self._writable
            if self.transport.is_closing():
                return
            self._send(frame)
            if item is None:
                return


def _wire_number(doc: dict, field: str, default: float) -> float:
    """A finite numeric request field, or ``ValueError`` naming it.

    Raw ``float(...)`` / ``int(...)`` on untrusted wire input would
    escape as ``TypeError`` (``null``) or ``OverflowError``
    (``Infinity``) and kill the connection handler instead of
    producing an ``ok: false`` reply.
    """
    number = _spec_number(doc.get(field, default), field)
    if not math.isfinite(number):
        raise ValueError(f"{field} must be finite, got {number!r}")
    return number


def _reply(seq, **fields) -> dict[str, Any]:
    doc = dict(fields)
    if seq is not None:
        doc["seq"] = seq
    return doc


def serve_until_complete(
    config: ServiceConfig, install_signals: bool = True
) -> ServiceServer:
    """Blocking entry point: run a daemon until it drains."""
    server = ServiceServer(config)
    asyncio.run(server.serve(install_signals=install_signals))
    return server
