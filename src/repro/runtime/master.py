"""Master loop for the multiprocessing runtime.

The master multiplexes worker pipes with
:func:`multiprocessing.connection.wait` (the select-style idiom), feeds
each request through the scheduler's stepper (the one the simulators
call), and collects piggy-backed results.  Start-up is the simulator's
step 1(a) (:func:`repro.simulation.engine.admit`); a screened-out PE is
answered with :class:`~repro.runtime.messages.Terminate`.

Fault tolerance beyond the paper -- the same fail-stop semantics the
simulator implements (see ``docs/fault_model.md``):

* if a worker dies mid-chunk (its pipe reports EOF, or it misses its
  liveness deadline), the master *requeues* the outstanding interval in
  a FIFO deque -- exactly like the simulator's ``_requeue`` -- and hands
  it to the next requester before consulting the scheduler, so a run
  completes despite worker loss;
* a worker that runs dry while a peer still holds an outstanding chunk
  is *parked*, not terminated: if the peer dies, the parked worker
  recomputes the lost interval (the simulator parks identically);
* workers send :class:`~repro.runtime.messages.Heartbeat` messages from
  a side thread, so the deadline (``RuntimeConfig.worker_deadline``)
  distinguishes a long chunk from a dead process.  Silence is measured
  every loop turn, not every idle poll: the wait is bounded by the
  nearest expiry, so a wedged worker is dropped on time however
  chatty its siblings are;
* chaos restarts enter through :class:`MasterHooks` admissions -- the
  loop keeps serving while a restart is still expected even if no
  worker is currently connected.

Timing knobs live in :class:`repro.runtime.config.RuntimeConfig`;
``poll_timeout`` / ``REPRO_POLL_TIMEOUT`` is the ceiling on one
``wait``.

The loop *raises* instead of silently returning a partial result:
:class:`WorkerTimeoutError` when deadline expiry leaves the run unable
to proceed, :class:`IncompleteRunError` when every pipe is gone but
iterations are still outstanding.
"""

from __future__ import annotations

import collections
import dataclasses
import time
from multiprocessing.connection import wait
from typing import Any, Iterable, Optional

from ..core import Scheduler
from ..core.distributed import DistributedSchedulerBase
from ..obs import ObsEvent, get_logger
from ..obs import resolve as _resolve_collector
from ..simulation.engine import StarvationError, admit
from .config import RuntimeConfig
from .messages import Assign, Heartbeat, Request, Terminate, WorkerStats

__all__ = [
    "MasterResult",
    "MasterHooks",
    "IncompleteRunError",
    "WorkerTimeoutError",
    "master_loop",
]

#: Event-source tag for the unified observability stream.
_SRC = "runtime.master"

logger = get_logger(__name__)

#: Seconds the master sleeps between checks while no worker is
#: connected but a (chaos) restart is still expected.
RESTART_BACKOFF = 0.05


class IncompleteRunError(RuntimeError):
    """Every worker is gone but iterations are still outstanding."""


class WorkerTimeoutError(IncompleteRunError):
    """A worker went silent past ``RuntimeConfig.worker_deadline``.

    Raised only when the expiry leaves the run unable to complete
    (otherwise the worker is dropped, its interval requeued, and the
    run continues on the survivors).
    """


class MasterHooks(object):
    """Extension points the master consults every loop iteration.

    The base implementation is inert; ``run_parallel`` passes its
    :class:`~repro.runtime.executor.PipeChassis`, which sleeps plan
    stalls on the master thread and re-admits restarted workers.
    """

    def on_tick(self) -> None:
        """Called once per loop iteration, before polling."""

    def admissions(self) -> Iterable[tuple[int, Any]]:
        """New ``(worker_id, connection)`` entries to serve (a fresh
        incarnation of a known worker id)."""
        return ()

    def expects_more(self) -> bool:
        """True while more admissions may still arrive; keeps the loop
        alive when no worker is currently connected."""
        return False


@dataclasses.dataclass
class MasterResult(object):
    """Everything the master gathered from one run."""

    results: list[tuple[int, Any]]
    stats: dict[int, WorkerStats]
    chunks: list[tuple[int, int, int]]  # (worker_id, start, stop)
    requeued: int = 0  # chunks reassigned after a worker death
    timeouts: int = 0  # workers dropped for missing their deadline

    def assigned_iterations(self) -> int:
        return sum(stop - start for _, start, stop in self.chunks)


def master_loop(
    scheduler: Scheduler,
    connections: dict[int, Any],
    worker_meta: Optional[dict[int, tuple[float, int]]] = None,
    config: Optional[RuntimeConfig] = None,
    hooks: Optional[MasterHooks] = None,
    collector=None,
) -> MasterResult:
    """Serve requests until the loop completes and workers terminate.

    ``connections`` maps worker id -> master-side pipe end.
    ``worker_meta`` maps worker id -> ``(virtual_power, run_queue)``
    (defaults to ``(1.0, 1)``): the stepper's requester, and what an
    ACP-driven scheduler's own ``acp_model`` admits PEs by.

    ``collector`` receives the master-side half of the unified
    observability stream (source ``runtime.master``): event times are
    seconds since the loop started (comparable to simulator virtual
    time), wall-clock stamps ride in the ``wall`` field.
    """
    config = config or RuntimeConfig.from_env()
    hooks = hooks or MasterHooks()
    obs = _resolve_collector(collector)
    t0 = time.monotonic()

    def emit(kind: str, worker: int = -1, **fields) -> None:
        # Early-return on a falsy (Null) collector: call sites guard
        # too, but the helper must never pay for ObsEvent construction
        # or clock reads on the disabled path.
        if not obs:
            return
        obs.emit(ObsEvent(
            kind, _SRC, time.monotonic() - t0, worker,
            wall=time.time(), **fields,
        ))
    worker_meta = worker_meta or {}
    requester = lambda wid: worker_meta.get(wid, (1.0, 1))
    step = scheduler.stepper(requester)
    live = dict(connections)
    outstanding: dict[int, tuple[int, int]] = {}
    #: FIFO of intervals lost to worker deaths -- first lost, first
    #: reassigned (loop order), mirroring the simulator's deque.
    requeue: collections.deque[tuple[int, int]] = collections.deque()
    #: workers idle-waiting because a failing peer may return work.
    parked: list[int] = []
    results: list[tuple[int, Any]] = []
    stats: dict[int, WorkerStats] = {}
    chunks: list[tuple[int, int, int]] = []
    last_seen: dict[int, float] = {
        wid: time.monotonic() for wid in live
    }
    requeued = 0
    timeouts = 0

    def send_assignment(wid: int, assignment: tuple[int, int],
                        detail: str = "") -> None:
        conn = live.get(wid)
        if conn is None:
            requeue.append(assignment)
            return
        try:
            outstanding[wid] = assignment
            chunks.append((wid, assignment[0], assignment[1]))
            conn.send(Assign(*assignment))
            if obs:
                emit("assign", wid, start=assignment[0],
                     stop=assignment[1], detail=detail)
        except (BrokenPipeError, OSError):
            drop_worker(wid)

    def send_terminate(wid: int) -> None:
        conn = live.pop(wid, None)
        last_seen.pop(wid, None)
        if conn is None:
            return
        try:
            conn.send(Terminate())
            if obs:
                emit("terminate", wid)
        except (BrokenPipeError, OSError):
            pass

    def handle_request(wid: int, req: Request) -> None:
        nonlocal requeued
        if wid in screened:
            send_terminate(wid)
            return
        if obs:
            emit("request", wid, acp=req.acp)
        if req.result is not None:
            delivered = outstanding.pop(wid, None)
            results.append(req.result)
            if obs and delivered is not None:
                emit("result", wid, start=delivered[0],
                     stop=delivered[1])
        else:
            stale = outstanding.pop(wid, None)
            if stale is not None:
                # A first request (no piggy-backed result) from an id
                # with an outstanding chunk means a restarted
                # incarnation: the old one died holding `stale`.
                for i in range(len(chunks) - 1, -1, -1):
                    if chunks[i] == (wid, stale[0], stale[1]):
                        del chunks[i]
                        break
                requeue.append(stale)
        if req.stats is not None:
            stats[wid] = req.stats
        if requeue:
            requeued += 1
            send_assignment(wid, requeue.popleft(), detail="requeue")
            return
        chunk = step(wid, req.acp)
        if obs:
            # An adaptive scheduler's stage decisions become ``adapt``
            # events; a fixed scheme drains none.
            for d in scheduler.drain_decisions():
                emit("adapt", wid, start=d.base, stop=d.base + d.size,
                     stage=d.stage, value=d.reward, detail=d.summary())
        if chunk is not None:
            send_assignment(wid, chunk[:2])
        elif outstanding or hooks.expects_more():
            # Work may reappear if a peer dies (or a chaos restart
            # brings one back): park this worker instead of terminating
            # it -- the simulator parks in the same situation.
            if obs:
                emit("park", wid)
            parked.append(wid)
        else:
            send_terminate(wid)
            # The request that emptied `outstanding` releases every
            # parked peer immediately (no poll-timeout lag).
            drain_parked()

    def drop_worker(wid: int, detail: str = "death") -> None:
        was_live = wid in live
        live.pop(wid, None)
        last_seen.pop(wid, None)
        if wid in parked:
            parked.remove(wid)
        lost = outstanding.pop(wid, None)
        if was_live or lost is not None:
            logger.warning(
                "worker %d dropped (%s)%s", wid, detail,
                f"; requeueing [{lost[0]}, {lost[1]})" if lost else "",
            )
            if obs:
                emit("fault", wid, detail=detail)
        if lost is not None:
            # Remove the lost chunk from the log; it will re-enter when
            # reassigned, keeping `chunks` an exact execution record.
            for i in range(len(chunks) - 1, -1, -1):
                if chunks[i] == (wid, lost[0], lost[1]):
                    del chunks[i]
                    break
            requeue.append(lost)
        drain_parked()

    def drain_parked() -> None:
        nonlocal requeued
        while requeue and parked:
            wid = parked.pop(0)
            if wid not in live:
                continue
            requeued += 1
            send_assignment(wid, requeue.popleft(), detail="requeue")
        if not requeue and not outstanding and scheduler.finished \
                and not hooks.expects_more():
            for wid in list(parked):
                send_terminate(wid)
            parked.clear()

    def enforce_deadlines() -> None:
        nonlocal timeouts
        overdue = config.overdue(last_seen, time.monotonic())
        for wid in overdue:
            conn = live.get(wid)
            timeouts += 1
            drop_worker(wid, detail="deadline")
            if conn is not None:
                try:
                    conn.close()
                except OSError:  # pragma: no cover - platform noise
                    pass
        if overdue and not live and not hooks.expects_more():
            raise WorkerTimeoutError(
                f"worker(s) {sorted(overdue)} sent no message for more "
                f"than worker_deadline={config.worker_deadline}s and no "
                f"worker remains; raise RuntimeConfig.worker_deadline "
                f"(REPRO_WORKER_DEADLINE) or check the heartbeat "
                f"interval ({config.heartbeat_interval})"
            )

    # Step 1(a), as in the simulator (one rule: ``admit``).
    screened: set[int] = set()
    if isinstance(scheduler, DistributedSchedulerBase):
        try:
            acps = admit(scheduler, scheduler.acp_model,
                         {wid: requester(wid) for wid in live})
        except StarvationError:
            for wid in list(live):
                send_terminate(wid)
            raise
        screened = {wid for wid, acp in acps.items() if not acp}

    while live or hooks.expects_more():
        hooks.on_tick()
        for wid, conn in hooks.admissions():
            if wid in live or wid in outstanding:
                # A restarted incarnation re-uses the id: whatever the
                # old incarnation still held died with it -- requeue it
                # before the replacement pipe masks the EOF.
                drop_worker(wid)
            live[wid] = conn
            last_seen[wid] = time.monotonic()
            logger.info("worker %d admitted", wid)
            if obs:
                emit("restart", wid, detail="admission")
        drain_parked()
        if not live:
            time.sleep(RESTART_BACKOFF)
            continue
        ready = wait(list(live.values()), timeout=config.wait_bound(
            last_seen.values(), time.monotonic()
        ))
        conn_to_wid = {id(c): w for w, c in live.items()}
        for conn in ready:
            wid = conn_to_wid.get(id(conn))
            if wid is None:
                continue
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                drop_worker(wid)
                continue
            last_seen[wid] = time.monotonic()
            if isinstance(msg, Heartbeat):
                if obs:
                    emit("heartbeat", wid)
                continue
            if isinstance(msg, Request):
                handle_request(wid, msg)
        # After the reads, so whatever queued up behind a master stall
        # counts as a sign of life before silence is judged.  A quiet
        # worker may just be computing a long chunk -- that is what
        # heartbeats and the deadline disambiguate.
        enforce_deadlines()

    if requeue or not scheduler.finished:
        missing = sum(stop - start for start, stop in requeue)
        raise IncompleteRunError(
            f"every worker is gone but the loop is not covered: "
            f"{missing} requeued iterations"
            + ("" if scheduler.finished else
               " and the scheduler still holds unassigned work")
        )
    return MasterResult(
        results=results,
        stats=stats,
        chunks=chunks,
        requeued=requeued,
        timeouts=timeouts,
    )
