"""Master loop for the multiprocessing runtime.

The master multiplexes worker pipes with
:func:`multiprocessing.connection.wait` (the select-style idiom), serves
each request through :class:`repro.core.master.MasterState` (the
master the simulator and MPI serve through too), and collects
piggy-backed results.  Start-up is the simulator's
step 1(a) (:func:`repro.simulation.engine.admit`); a screened-out PE is
answered with :class:`~repro.runtime.messages.Terminate`.

Fault tolerance beyond the paper -- the same fail-stop semantics the
simulator implements (see ``docs/fault_model.md``):

* a worker that dies mid-chunk (EOF on its pipe, or a missed liveness
  deadline) has its interval requeued for the next requester; a dry
  worker parks while a chunk is outstanding or a restart is expected;
* workers send :class:`~repro.runtime.messages.Heartbeat` messages from
  a side thread, so the deadline (``RuntimeConfig.worker_deadline``)
  distinguishes a long chunk from a dead process.  Silence is measured
  every loop turn, not every idle poll: the wait is bounded by the
  nearest expiry, so a wedged worker is dropped on time however
  chatty its siblings are;
* the fault script is fired by this loop, through
  :class:`MasterHooks`: each turn runs every action that is due and
  admits the restarted incarnations, and the wait never outlasts the
  next action.  A plan stall holds the loop inside ``fire``, so
  requests queue behind it.  The loop keeps serving while a restart is
  still expected even if no worker is currently connected.

Timing knobs live in :class:`repro.runtime.config.RuntimeConfig`;
``poll_timeout`` is the ceiling on one ``wait``.

The loop *raises* instead of silently returning a partial result:
:class:`WorkerTimeoutError` when deadline expiry leaves the run unable
to proceed, :class:`IncompleteRunError` when every pipe is gone but
iterations are still outstanding.
"""

from __future__ import annotations

import dataclasses
import math
from multiprocessing.connection import wait
from typing import Any, Iterable, Optional

from ..core import Scheduler
from ..core.distributed import DistributedSchedulerBase
from ..core.master import PARK, MasterState
from ..obs import ObsEvent, get_logger
from ..obs import resolve as _resolve_collector
from ..simulation.engine import StarvationError, admit
from .chassis import Clock
from .config import RuntimeConfig
from .messages import Assign, Heartbeat, Request, Terminate

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
    :class:`~repro.runtime.executor.PipeChassis`, whose fault script
    the loop fires: plan stalls hold the master thread, restarted
    workers are admitted.  :attr:`clock` is the loop's one clock: the
    run's for a chassis, its own (origin: now) for the inert hooks.
    """

    def __init__(self) -> None:
        self.clock = Clock()

    def fire(self) -> Iterable[tuple[int, Any]]:
        """Called once per loop iteration, before polling: run what is
        due and return new ``(worker_id, connection)`` entries to serve
        (a fresh incarnation of a known worker id)."""
        return ()

    def due(self) -> float:
        """Seconds the next poll may block before :meth:`fire` has
        more to do."""
        return math.inf

    def expects_more(self) -> bool:
        """True while more admissions may still arrive; keeps the loop
        alive when no worker is currently connected."""
        return False


@dataclasses.dataclass
class MasterResult(object):
    """Everything the master gathered from one run."""

    results: list[tuple[int, Any]]
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
    seconds on ``hooks.clock`` (comparable to simulator virtual time),
    and each ``wall`` is the clock's wall stamp plus that time.
    """
    config = config or RuntimeConfig()
    hooks = hooks or MasterHooks()
    obs = _resolve_collector(collector)
    now, wall = hooks.clock.now, hooks.clock.wall

    worker_meta = worker_meta or {}
    requester = lambda wid: worker_meta.get(wid, (1.0, 1))
    live = dict(connections)

    def record(row: tuple) -> None:
        obs.emit(ObsEvent(*row[:-1], wall=wall + row[2]))

    def emit(kind: str, worker: int = -1, **fields) -> None:
        # Never pays for an ObsEvent or a clock read when unobserved.
        if obs:
            record(ObsEvent(kind, _SRC, now(), worker, **fields))

    master = MasterState(
        scheduler, requester,
        lambda outstanding: bool(outstanding) or hooks.expects_more(),
        _SRC, record if obs else None,
    )
    results: list[tuple[int, Any]] = []
    chunks: list[tuple[int, int, int]] = []
    last_seen: dict[int, float] = {wid: now() for wid in live}
    requeued = 0
    timeouts = 0

    def send_assignment(wid: int, span: tuple[int, int]) -> None:
        chunks.append((wid, span[0], span[1]))
        try:
            live[wid].send(Assign(*span))
        except (BrokenPipeError, OSError):
            drop_worker(wid)

    def send_terminate(wid: int) -> None:
        conn = live.pop(wid, None)
        last_seen.pop(wid, None)
        if conn is None:
            return
        try:
            conn.send(Terminate())
            emit("terminate", wid)
        except (BrokenPipeError, OSError):
            pass

    def handle_request(wid: int, req: Request) -> None:
        if wid in screened:
            send_terminate(wid)
            return
        emit("request", wid, acp=req.acp)
        if req.result is not None:
            results.append(req.result)
        chunk = master.request(
            wid, req.acp, req.result is not None, now(),
        )
        if chunk is None:
            send_terminate(wid)
            # The request that settled the run releases every parked
            # peer at once (no poll-timeout lag).
            release()
        elif chunk is not PARK:
            send_assignment(wid, chunk[:2])

    def release() -> None:
        for wid, span in master.release(now()):
            if span is None:
                send_terminate(wid)
            else:
                send_assignment(wid, span)

    def drop_worker(wid: int, detail: str = "death") -> None:
        nonlocal requeued
        was_live = wid in live
        live.pop(wid, None)
        last_seen.pop(wid, None)
        lost = master.lose(wid)
        if was_live or lost is not None:
            logger.warning(
                "worker %d dropped (%s)%s", wid, detail,
                f"; requeueing [{lost[0]}, {lost[1]})" if lost else "",
            )
            emit("fault", wid, detail=detail)
        if lost is not None:
            # Remove the lost chunk from the log; it will re-enter when
            # reassigned, keeping `chunks` an exact execution record.
            requeued += 1
            chunks.remove((wid, lost[0], lost[1]))
        release()

    def enforce_deadlines() -> None:
        nonlocal timeouts
        overdue = config.overdue(last_seen, now())
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
                f"or check the heartbeat interval "
                f"({config.heartbeat_interval})"
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
        for wid, conn in hooks.fire():
            if wid in live or wid in master.outstanding:
                # A restarted incarnation re-uses the id: whatever the
                # old incarnation still held died with it -- requeue it
                # before the replacement pipe masks the EOF.
                drop_worker(wid)
            live[wid] = conn
            last_seen[wid] = now()
            logger.info("worker %d admitted", wid)
            emit("restart", wid, detail="admission")
        release()
        ready = wait(list(live.values()), timeout=min(
            hooks.due(), config.wait_bound(last_seen.values(), now()),
        ))
        conn_to_wid = {id(c): w for w, c in live.items()}
        for conn in ready:
            wid = conn_to_wid.get(id(conn))
            if wid is None or live.get(wid) is not conn:
                continue  # dropped earlier in this batch
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                drop_worker(wid)
                continue
            last_seen[wid] = now()
            if isinstance(msg, Heartbeat):
                emit("heartbeat", wid)
                continue
            if isinstance(msg, Request):
                handle_request(wid, msg)
        # After the reads, so whatever queued up behind a master stall
        # counts as a sign of life before silence is judged.  A quiet
        # worker may just be computing a long chunk -- that is what
        # heartbeats and the deadline disambiguate.
        enforce_deadlines()

    if master.requeue or not scheduler.finished:
        missing = sum(stop - start for start, stop in master.requeue)
        raise IncompleteRunError(
            f"every worker is gone but the loop is not covered: "
            f"{missing} requeued iterations"
            + ("" if scheduler.finished else
               " and the scheduler still holds unassigned work")
        )
    return MasterResult(
        results=results,
        chunks=chunks,
        requeued=requeued,
        timeouts=timeouts,
    )
