"""Master--slave discrete-event simulator for centralized schemes.

This engine executes any :class:`repro.core.Scheduler` against a
:class:`~repro.simulation.cluster.ClusterSpec` and a
:class:`~repro.workloads.Workload`, reproducing the paper's protocol
(Sec. 2.2 and 5) in virtual time:

* idle slaves send requests to the master; every request except the
  first **piggy-backs the previous chunk's results** (the paper found
  end-of-run collection caused contention idling, so piggy-backing is
  the protocol of record);
* the master is a **single FIFO server**: requests queue while it is
  busy (this is the contention source behind the p=2 speedup dip);
* in distributed mode each slave samples its run queue at request time
  and attaches its ACP; the scheduler sees it via
  :class:`~repro.core.base.WorkerView` and applies the paper's
  re-derivation rule internally;
* computation advances at ``speed / Q(t)`` under the node's load trace
  (nondedicated mode).

Accounting matches Tables 2-3: per-PE ``T_com`` (link occupancy),
``T_wait`` (master queueing/service + terminal idling until the run
ends), ``T_comp`` (iteration execution), and ``T_p`` = the time the
last result lands on the master.  For the fast PEs of Table 2 the paper
rows sum to ``T_p`` -- that is terminal idling, and it is accounted
here the same way.

Start-up follows the paper's step 1(a): the master knows every
participating slave's initial ACP before the first assignment ("wait
for all workers with A_i > 0 to report").  Slaves whose ACP falls below
the model's availability threshold sit the computation out; if *no*
slave is available, :class:`StarvationError` is raised -- exactly the
classic-DTSS deadlock the paper's Sec. 5.2(I) improvement fixes.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Callable, Optional, Union

import numpy as np

from ..core import Scheduler, WorkerView, make
from ..core.acp import IMPROVED_ACP, AcpModel
from ..obs import ObsEvent
from ..obs import resolve as _resolve_collector
from ..workloads import Workload
from . import fastpath
from .cluster import ClusterSpec, NodeSpec
from .events import EventQueue, SimulationError
from .loadgen import OverlayLoad, integrate_compute
from .metrics import ChunkRecord, SimResult, WorkerMetrics

__all__ = [
    "StarvationError",
    "simulate",
    "make_for_cluster",
    "MasterSlaveSimulation",
]

SchedulerLike = Union[str, Scheduler, Callable[[int, int], Scheduler]]

#: Event-source tag for the unified observability stream.
_SRC = "sim.master"


class StarvationError(SimulationError):
    """No slave has ACP above the availability threshold (paper 5.2-I)."""


def make_for_cluster(
    scheme: str,
    total: int,
    cluster: ClusterSpec,
    acp_model: AcpModel = IMPROVED_ACP,
    **kwargs,
) -> Scheduler:
    """Build a scheduler for ``cluster``, wiring cluster-derived params.

    Weighted schemes (WF, weighted static) receive the cluster's
    virtual powers automatically; distributed schemes receive
    ``acp_model``.
    """
    name = scheme.strip().upper()
    if name in ("WF", "S-W", "SW"):
        kwargs.setdefault("weights", cluster.virtual_powers())
        if name != "WF":
            return make("S", total, cluster.size, **kwargs)
    sched = None
    if name in ("DTSS", "DFSS", "DFISS", "DTFSS"):
        kwargs.setdefault("acp_model", acp_model)
    sched = make(name if name != "S-W" else "S", total, cluster.size,
                 **kwargs)
    return sched


def _overlay_load_spikes(cluster: ClusterSpec, chaos) -> ClusterSpec:
    """A copy of ``cluster`` with the plan's LoadSpikes overlaid.

    The caller's spec is never mutated: affected nodes are replaced
    with copies whose trace is an :class:`OverlayLoad`.
    """
    windows: dict[int, list[tuple[float, float, int]]] = {}
    for ev in chaos.events:
        if ev.kind == "spike":
            windows.setdefault(ev.worker, []).append(
                (ev.at, ev.at + ev.duration, ev.extra_q)
            )
    if not windows:
        return cluster
    nodes = [
        dataclasses.replace(node, load=OverlayLoad(node.load, windows[i]))
        if i in windows else node
        for i, node in enumerate(cluster.nodes)
    ]
    return dataclasses.replace(cluster, nodes=nodes)


@dataclasses.dataclass
class _WorkerState(object):
    index: int
    node: NodeSpec
    metrics: WorkerMetrics
    pending_piggyback: float = 0.0  # bytes of results to attach
    #: start, stop, stage, acp-at-assignment
    pending_chunk: Optional[tuple[int, int, int, Optional[int]]] = None
    done: bool = False
    dead: bool = False
    #: interval whose results have not yet reached the master (lost if
    #: this worker dies); mirrors ``outstanding`` in the runtime master.
    unacked: Optional[tuple[int, int]] = None
    last_activity: float = 0.0
    #: incarnation counter: bumped at every death so events scheduled
    #: by a previous incarnation no-op after a chaos restart.
    epoch: int = 0


class MasterSlaveSimulation(object):
    """One simulated run; construct and call :meth:`run` once."""

    def __init__(
        self,
        scheduler: Scheduler,
        workload: Workload,
        cluster: ClusterSpec,
        acp_model: AcpModel = IMPROVED_ACP,
        collect_results: bool = False,
        chaos=None,
        collector=None,
        fast: object = "auto",
    ) -> None:
        #: unified event stream sink; falsy NullCollector when disabled,
        #: so emission sites cost one truth test on the hot path.
        self.obs = _resolve_collector(collector)
        # Cached truthiness: the hot loops test this plain bool
        # (~5x cheaper than NullCollector.__bool__ per gate);
        # the collector never changes after construction.
        self.observing = bool(self.obs)
        #: fast-path policy: ``"auto"`` (take it when eligible, the
        #: default), ``True`` (require it; raise when ineligible) or
        #: ``False`` (always run the generic DES).
        self.fast = fast
        if scheduler.workers != cluster.size:
            raise SimulationError(
                f"scheduler built for {scheduler.workers} workers but "
                f"cluster has {cluster.size}"
            )
        if scheduler.total != workload.size:
            raise SimulationError(
                f"scheduler covers {scheduler.total} iterations but "
                f"workload has {workload.size}"
            )
        self.chaos = chaos
        if chaos is not None:
            if chaos.max_worker >= cluster.size:
                raise SimulationError(
                    f"fault plan targets worker {chaos.max_worker} but "
                    f"cluster has {cluster.size} nodes"
                )
            cluster = _overlay_load_spikes(cluster, chaos)
        self.scheduler = scheduler
        self.workload = workload
        self.cluster = cluster
        #: feedback-dependent (adaptive) schedulers get the workload's
        #: cost structure, per-chunk completion reports, and their
        #: stage decisions drained into ``adapt`` events.  Cached as a
        #: plain bool so the hot path pays one truth test.
        self._adaptive = bool(
            getattr(scheduler, "feedback_dependent", False)
        )
        if self._adaptive:
            scheduler.bind_workload(workload)
        self.acp_model = acp_model
        self.collect_results = collect_results
        self.queue = EventQueue()
        self.workers = [
            _WorkerState(
                index=i, node=node, metrics=WorkerMetrics(name=node.name)
            )
            for i, node in enumerate(cluster.nodes)
        ]
        self._master_free = 0.0
        self._master_link_free = 0.0
        self._last_result_arrival = 0.0
        self._chunks: list[ChunkRecord] = []
        self._results: list[tuple[int, np.ndarray]] = []
        self._participants: list[_WorkerState] = []
        #: intervals lost to worker deaths, awaiting reassignment in
        #: loop order (FIFO: first interval lost is first reassigned).
        self._requeue: collections.deque[tuple[int, int]] = (
            collections.deque()
        )
        #: participants with a scheduled death still ahead.
        self._pending_failers: set[int] = set()
        #: workers parked by the master because work may still reappear
        #: (a failing peer holds unacked results).
        self._parked: list[_WorkerState] = []
        #: shared-medium availability per LAN segment id.
        self._segment_free: dict[str, float] = {}
        #: per-worker list of scheduled death times still ahead
        #: (fails_at plus chaos deaths), consumed in time order.
        self._death_schedule: dict[int, list[float]] = {}
        #: chaos restarts not yet fired: while > 0 the all-dead check
        #: stays soft because a PE is still coming back.
        self._future_restarts = 0
        #: per-worker (at, kind, extra_seconds) message faults, sorted.
        self._message_faults: dict[int, list[tuple[float, str, float]]] = {}

    # -- helpers ---------------------------------------------------------------

    def _acp_now(self, state: _WorkerState, t: float) -> int:
        node = state.node
        return self.acp_model.acp(
            float(node.virtual_power or 1.0), node.load.q_at(t)
        )

    def _available(self, state: _WorkerState, t: float) -> bool:
        node = state.node
        return self.acp_model.available(
            float(node.virtual_power or 1.0), node.load.q_at(t)
        )

    def _acquire_segment(
        self, node: NodeSpec, t: float, duration: float
    ) -> float:
        """Earliest start of a ``duration`` transfer at/after ``t``.

        On a shared segment the medium is a single resource: the
        transfer waits for it and then occupies it.  Switched nodes
        (``segment=None``) start immediately.
        """
        if node.segment is None:
            return t
        free = self._segment_free.get(node.segment, 0.0)
        start = max(t, free)
        self._segment_free[node.segment] = start + duration
        return start

    def _alive_action(self, state: _WorkerState, fn, *args):
        """An event action that no-ops if ``state`` died in the meantime.

        The epoch capture makes the guard restart-safe: a chaos restart
        revives the worker, but events scheduled by the dead incarnation
        still must not fire (their protocol context is gone).
        """
        epoch = state.epoch

        def action(_event) -> None:
            if state.dead or state.epoch != epoch:
                return
            fn(state, *args)

        return action

    def _pop_message_fault(
        self, state: _WorkerState, t: float
    ) -> Optional[tuple[float, str, float]]:
        """Consume the worker's due delay/loss fault, if any."""
        faults = self._message_faults.get(state.index)
        if not faults or faults[0][0] > t:
            return None
        return faults.pop(0)

    # -- protocol events ---------------------------------------------------------

    def _send_request(self, state: _WorkerState) -> None:
        """Worker transmits a request (with piggy-backed results)."""
        if state.dead:
            return
        t = self.queue.now
        fault = self._pop_message_fault(state, t)
        if fault is not None:
            # Delay: the message sits on the wire ``extra`` longer.
            # Loss: the message vanishes and the retransmission goes out
            # after ``retry_after`` -- to the protocol the two are the
            # same pause, accounted as wait time.
            _at, kind, extra = fault
            state.metrics.t_wait += extra
            if self.observing:
                self.obs.emit(ObsEvent(
                    "fault", _SRC, t, state.index, value=extra,
                    detail=kind,
                ))
            self.queue.schedule_at(
                t + extra,
                self._alive_action(state, self._send_request),
                kind=f"chaos-{kind}",
            )
            return
        node = state.node
        nbytes = self.cluster.request_bytes + state.pending_piggyback
        carries_results = state.pending_piggyback > 0
        state.pending_piggyback = 0.0
        tx = node.transfer_time(nbytes)
        # Shared-medium contention: wait for the segment, then hold it.
        tx_start = self._acquire_segment(node, t, tx)
        state.metrics.t_wait += tx_start - t
        state.metrics.t_com += tx
        acp = (
            self._acp_now(state, t)
            if self.scheduler.distributed
            else None
        )
        if self.observing:
            self.obs.emit(ObsEvent(
                "request", _SRC, t, state.index, None, None, None, acp,
            ))
        self.queue.schedule_at(
            tx_start + tx,
            self._alive_action(
                state, self._master_receive, acp, carries_results, nbytes
            ),
            kind="request-arrival",
        )

    def _master_receive(
        self,
        state: _WorkerState,
        acp: Optional[int],
        carries_results: bool,
        nbytes: float,
    ) -> None:
        if state.dead:
            # Fail-stop semantics: a dying worker's in-flight messages
            # are lost with it (its unacked interval was requeued by
            # the death handler).
            return
        port_arrival = self.queue.now
        # The master's single NIC: inbound payloads serialize (the
        # paper's "contend for master access" effect on result
        # collection).
        recv_start = max(port_arrival, self._master_link_free)
        arrival = recv_start + nbytes / self.cluster.master_bandwidth
        self._master_link_free = arrival
        if carries_results:
            self._last_result_arrival = max(
                self._last_result_arrival, arrival
            )
            if self.observing and state.unacked is not None:
                self.obs.emit(ObsEvent(
                    "result", _SRC, arrival, state.index,
                    state.unacked[0], state.unacked[1],
                ))
            state.unacked = None  # results safely delivered
        service_start = max(arrival, self._master_free)
        service_end = service_start + self.cluster.master_service
        self._master_free = service_end
        # Master NIC queueing + master queueing + service is wait time
        # for the slave.
        state.metrics.t_wait += service_end - port_arrival
        assignment: Optional[tuple[int, int, int, Optional[int]]] = None
        if self._requeue:
            start, stop = self._requeue.popleft()
            assignment = (start, stop, 0, acp)
        else:
            view = WorkerView(
                worker_id=state.index,
                virtual_power=float(state.node.virtual_power or 1.0),
                run_queue=state.node.load.q_at(arrival),
                acp=acp,
            )
            chunk = self.scheduler.next_chunk(view)
            if self._adaptive and self.observing:
                for d in self.scheduler.drain_decisions():
                    self.obs.emit(ObsEvent(
                        "adapt", _SRC, service_end, state.index,
                        start=d.base, stop=d.base + d.size,
                        stage=d.stage, value=d.reward,
                        detail=d.summary(),
                    ))
            if chunk is not None:
                assignment = (chunk.start, chunk.stop, chunk.stage, acp)
        if assignment is None:
            if self._work_may_reappear():
                # A failing peer still holds undelivered results: park
                # this worker; its reply comes when (if) work reappears.
                if self.observing:
                    self.obs.emit(ObsEvent(
                        "park", _SRC, service_end, state.index,
                    ))
                self._parked.append(state)
                return
            reply_tx = state.node.transfer_time(
                self.cluster.reply_bytes
            )
            state.metrics.t_com += reply_tx
            self.queue.schedule_at(
                service_end + reply_tx,
                self._alive_action(state, self._worker_terminate),
                kind="terminate",
            )
            return
        reply_tx = state.node.transfer_time(self.cluster.reply_bytes)
        reply_start = self._acquire_segment(
            state.node, service_end, reply_tx
        )
        state.metrics.t_wait += reply_start - service_end
        state.metrics.t_com += reply_tx
        if self.observing:
            self.obs.emit(ObsEvent(
                "assign", _SRC, service_end, state.index,
                assignment[0], assignment[1], assignment[2],
                assignment[3],
            ))
        state.pending_chunk = assignment
        self.queue.schedule_at(
            reply_start + reply_tx,
            self._alive_action(state, self._worker_compute),
            kind="assign",
        )

    def _worker_compute(self, state: _WorkerState) -> None:
        if state.dead:
            return
        t = self.queue.now
        assert state.pending_chunk is not None
        start, stop, stage, acp = state.pending_chunk
        state.pending_chunk = None
        state.unacked = (start, stop)
        cost = self.workload.chunk_cost(start, stop)
        finish = integrate_compute(t, cost, state.node.speed,
                                   state.node.load)
        if self.observing:
            self.obs.emit(ObsEvent(
                "compute", _SRC, t, state.index,
                start, stop, stage, acp, finish - t,
            ))
        state.metrics.t_comp += finish - t
        state.metrics.chunks += 1
        state.metrics.iterations += stop - start
        if self._adaptive:
            self.scheduler.observe_completion(
                state.index, start, stop, finish - t
            )
        self._chunks.append(
            ChunkRecord(
                worker=state.index,
                start=start,
                stop=stop,
                assigned_at=t,
                completed_at=finish,
                stage=stage,
                acp=acp,
            )
        )
        if self.collect_results:
            self._results.append((start, self.workload.execute(start, stop)))
        state.pending_piggyback = (
            (stop - start) * self.cluster.result_bytes_per_item
        )
        self.queue.schedule_at(
            finish,
            self._alive_action(state, self._send_request),
            kind="request-send",
        )

    def _worker_terminate(self, state: _WorkerState) -> None:
        state.done = True
        state.metrics.finished_at = self.queue.now
        if self.observing:
            self.obs.emit(ObsEvent(
                "terminate", _SRC, self.queue.now, state.index,
            ))

    # -- failure injection --------------------------------------------------

    def _work_may_reappear(self) -> bool:
        """True while a still-failing worker holds undelivered work."""
        return any(
            s.index in self._pending_failers
            and (s.unacked is not None or s.pending_chunk is not None)
            for s in self._participants
        )

    def _worker_die(self, state: _WorkerState) -> None:
        """Fail-stop: lose undelivered work, requeue it, unpark peers."""
        t = self.queue.now
        schedule = self._death_schedule.get(state.index)
        if schedule:
            schedule.pop(0)
        if not schedule:
            self._pending_failers.discard(state.index)
        if state.dead or state.done:
            # Already dead (duplicate fails_at + plan death) or already
            # terminated normally: nothing is lost, but the failer
            # bookkeeping above may have just unblocked parked peers.
            self._drain_parked()
            return
        state.dead = True
        state.done = True
        state.epoch += 1
        state.metrics.finished_at = t
        if self.observing:
            self.obs.emit(ObsEvent(
                "fault", _SRC, t, state.index, detail="death",
            ))
        lost: list[tuple[int, int]] = []
        if state.pending_chunk is not None:
            start, stop, _stage, _acp = state.pending_chunk
            lost.append((start, stop))
            state.pending_chunk = None
        if state.unacked is not None:
            start, stop = state.unacked
            lost.append((start, stop))
            state.unacked = None
            # Remove the (now lost) execution record; it will re-enter
            # when a survivor recomputes the interval.
            for i in range(len(self._chunks) - 1, -1, -1):
                rec = self._chunks[i]
                if rec.worker == state.index and rec.start == start \
                        and rec.stop == stop:
                    if rec.completed_at > t:
                        # Died mid-chunk: un-book the never-executed
                        # tail of the pre-integrated compute time.
                        state.metrics.t_comp -= rec.completed_at - t
                    state.metrics.chunks -= 1
                    state.metrics.iterations -= stop - start
                    del self._chunks[i]
                    break
            if self.collect_results:
                for i in range(len(self._results) - 1, -1, -1):
                    if self._results[i][0] == start:
                        del self._results[i]
                        break
        self._requeue.extend(lost)
        alive = [s for s in self._participants if not s.dead]
        if not alive and self._future_restarts == 0 \
                and (self._requeue or not self.scheduler.finished):
            raise SimulationError(
                "every worker died with iterations outstanding; the "
                "loop cannot complete"
            )
        self._drain_parked()

    def _worker_restart(self, state: _WorkerState) -> None:
        """A chaos restart: the PE rejoins as a fresh, idle slave.

        Anything the dead incarnation held was requeued at death; the
        revived worker simply asks for work like any other idle slave
        (re-registering its ACP first in distributed mode, the paper's
        step 1(a) for a late joiner).
        """
        self._future_restarts -= 1
        if not state.dead:
            # The scheduled death never hurt this worker (it finished
            # first, or the plan was applied to a reliable node).
            return
        t = self.queue.now
        state.dead = False
        state.done = False
        state.pending_chunk = None
        state.unacked = None
        state.pending_piggyback = 0.0
        if self.observing:
            self.obs.emit(ObsEvent("restart", _SRC, t, state.index))
        if self.scheduler.distributed:
            acp = self._acp_now(state, t)
            self.scheduler.observe_acp(state.index, acp)
            if self.observing:
                self.obs.emit(ObsEvent(
                    "acp-update", _SRC, t, state.index, acp=acp,
                ))
        self._send_request(state)

    def _master_stall(self, duration: float) -> None:
        """The master serves nothing for ``duration`` from now."""
        if self.observing:
            self.obs.emit(ObsEvent(
                "fault", _SRC, self.queue.now, value=float(duration),
                detail="stall",
            ))
        self._master_free = max(
            self._master_free, self.queue.now + float(duration)
        )

    def _drain_parked(self) -> None:
        """Hand requeued work to parked workers; terminate the rest."""
        while self._requeue and self._parked:
            state = self._parked.pop(0)
            if state.dead:
                continue
            start, stop = self._requeue.popleft()
            reply_tx = state.node.transfer_time(self.cluster.reply_bytes)
            state.metrics.t_com += reply_tx
            if self.observing:
                self.obs.emit(ObsEvent(
                    "assign", _SRC, self.queue.now, state.index,
                    start=start, stop=stop, stage=0,
                    detail="requeue",
                ))
            state.pending_chunk = (start, stop, 0, None)
            self.queue.schedule(
                reply_tx,
                self._alive_action(state, self._worker_compute),
                kind="assign",
            )
        if not self._work_may_reappear() and not self._requeue \
                and self.scheduler.finished:
            for state in self._parked:
                if state.dead:
                    continue
                reply_tx = state.node.transfer_time(
                    self.cluster.reply_bytes
                )
                state.metrics.t_com += reply_tx
                self.queue.schedule(
                    reply_tx,
                    self._alive_action(state, self._worker_terminate),
                    kind="terminate",
                )
            self._parked.clear()

    def _schedule_faults(self) -> None:
        """Queue every death (fails_at + plan) and chaos event.

        Deaths from ``NodeSpec.fails_at`` and from the fault plan merge
        into one per-worker schedule so the failer bookkeeping (and the
        parking heuristic built on it) sees them uniformly.
        """
        participants = {s.index for s in self._participants}
        deaths: dict[int, list[float]] = {}
        for s in self._participants:
            if s.node.fails_at is not None:
                deaths.setdefault(s.index, []).append(
                    float(s.node.fails_at)
                )
        if self.chaos is not None:
            for ev in self.chaos.events:
                kind = ev.kind
                if kind == "death" and ev.worker in participants:
                    deaths.setdefault(ev.worker, []).append(float(ev.at))
                elif kind == "restart" and ev.worker in participants:
                    self._future_restarts += 1
                    self.queue.schedule_at(
                        float(ev.at),
                        lambda _e, s=self.workers[ev.worker]:
                            self._worker_restart(s),
                        kind="chaos-restart",
                    )
                elif kind == "stall":
                    self.queue.schedule_at(
                        float(ev.at),
                        lambda _e, d=float(ev.duration):
                            self._master_stall(d),
                        kind="chaos-stall",
                    )
                elif kind in ("delay", "loss") and ev.worker in participants:
                    self._message_faults.setdefault(ev.worker, [])
            for idx in self._message_faults:
                self._message_faults[idx] = self.chaos.message_faults(idx)
        for idx, times in deaths.items():
            times.sort()
            self._death_schedule[idx] = times
            self._pending_failers.add(idx)
            for at in times:
                self.queue.schedule_at(
                    at,
                    lambda _e, s=self.workers[idx]: self._worker_die(s),
                    kind="death",
                )

    # -- run -----------------------------------------------------------------------

    def run(self) -> SimResult:
        # Analytic fast path: fault-free deterministic runs skip the
        # DES entirely (bit-identical; see repro.simulation.fastpath).
        if self.fast is not False:
            reason = fastpath.master_fast_reason(self)
            if reason is None and fastpath.fast_enabled():
                return fastpath.run_fast_master(self)
            if self.fast is True:
                raise SimulationError(
                    f"fast=True but the run is not fast-path eligible: "
                    f"{reason or 'disabled via ' + fastpath.ENV_FAST}"
                )
        # Step 1(a): availability screen + initial ACP registration.
        if self.scheduler.distributed:
            self._participants = [
                s for s in self.workers if self._available(s, 0.0)
            ]
            if not self._participants:
                raise StarvationError(
                    "no worker has ACP above the availability threshold; "
                    "this is the classic-DTSS starvation the paper's "
                    "Sec. 5.2 scaled ACP model avoids"
                )
            for s in self._participants:
                acp = self._acp_now(s, 0.0)
                self.scheduler.observe_acp(s.index, acp)
                if self.observing:
                    self.obs.emit(ObsEvent(
                        "acp-update", _SRC, 0.0, s.index, acp=acp,
                    ))
        else:
            self._participants = list(self.workers)
        self._schedule_faults()
        for s in self._participants:
            self._send_request(s)
        self.queue.run()
        t_p = self._last_result_arrival
        # Terminal idling: slaves that finished early wait for the run
        # to end (paper rows for fast PEs sum to ~T_p).  Dead workers
        # do not idle -- their clock stopped at death.
        for s in self._participants:
            if s.dead:
                continue
            tracked = s.metrics.busy
            if tracked < t_p:
                s.metrics.t_wait += t_p - tracked
        result = SimResult(
            scheme=self.scheduler.name,
            workers=[s.metrics for s in self.workers],
            t_p=t_p,
            chunks=self._chunks,
            rederivations=getattr(self.scheduler, "rederivations", 0),
            events=self.queue.processed,
        )
        assigned = sum(c.size for c in self._chunks)
        if assigned != self.workload.size:
            raise SimulationError(
                f"scheduling leak: assigned {assigned} of "
                f"{self.workload.size} iterations"
            )
        if self.collect_results:
            self._results.sort(key=lambda pair: pair[0])
            result.results = (
                np.concatenate([r for _, r in self._results])
                if self._results
                else np.zeros(0)
            )
        return result


def simulate(
    scheme: SchedulerLike,
    workload: Workload,
    cluster: ClusterSpec,
    acp_model: AcpModel = IMPROVED_ACP,
    collect_results: bool = False,
    chaos=None,
    collector=None,
    fast: object = "auto",
    **scheme_kwargs,
) -> SimResult:
    """Simulate one run of ``scheme`` over ``workload`` on ``cluster``.

    ``scheme`` may be a registry name (``"TSS"``, ``"DFISS"``, ...), a
    ready :class:`~repro.core.Scheduler` (must match the workload and
    cluster sizes), or a factory ``f(total, workers) -> Scheduler``.

    ``chaos`` takes a :class:`repro.chaos.FaultPlan`: deaths, restarts,
    message delay/loss, master stalls, and load spikes are injected in
    virtual time, and the run must still cover every iteration exactly
    once (see ``docs/fault_model.md`` and :mod:`repro.verify`).

    ``fast`` selects the analytic fast path
    (:mod:`repro.simulation.fastpath`): ``"auto"`` (default) takes it
    when the run is fault-free and unobserved -- bit-identical to the
    DES; ``False`` forces the DES; ``True`` requires the fast path and
    raises :class:`SimulationError` when the run is ineligible.
    """
    if isinstance(scheme, str):
        scheduler = make_for_cluster(
            scheme, workload.size, cluster, acp_model, **scheme_kwargs
        )
    elif isinstance(scheme, Scheduler):
        scheduler = scheme
    else:
        scheduler = scheme(workload.size, cluster.size)
    return MasterSlaveSimulation(
        scheduler,
        workload,
        cluster,
        acp_model=acp_model,
        collect_results=collect_results,
        chaos=chaos,
        collector=collector,
        fast=fast,
    ).run()
