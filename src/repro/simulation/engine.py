"""Master--slave discrete-event simulator for centralized schemes.

This engine executes any :class:`repro.core.Scheduler` against a
:class:`~repro.simulation.cluster.ClusterSpec` and a
:class:`~repro.workloads.Workload`, reproducing the paper's protocol
(Sec. 2.2 and 5) in virtual time on the shared
:class:`~repro.simulation.des.DesCluster` chassis (clock, fail-stop
lifecycle, compute step, Tables 2-3 accounting).  What is specific to
this substrate:

* **work source** -- idle slaves send requests to the master, a
  **single FIFO server**: requests queue while it is busy (this is the
  contention source behind the p=2 speedup dip).  In distributed mode
  each slave samples its run queue at request time and attaches its
  ACP; the scheduler receives it with the request (its stepper,
  :meth:`repro.core.Scheduler.stepper`) and applies the paper's
  re-derivation rule internally;
* **result delivery** -- every request except the first **piggy-backs
  the previous chunk's results** (the paper found end-of-run collection
  caused contention idling, so piggy-backing is the protocol of
  record); ``T_p`` is the time the last result lands on the master;
* **lost-work sink** -- intervals a dead slave held go to a FIFO
  requeue the master serves before asking the scheduler;
* **stalled resource** -- the master server itself.

Start-up follows the paper's step 1(a): the master knows every
participating slave's initial ACP before the first assignment ("wait
for all workers with A_i > 0 to report").  Slaves whose ACP falls below
the model's availability threshold sit the computation out (the master
knows them at ACP 0, so they count nothing in ``A``); if *no* slave is
available, :class:`StarvationError` is raised -- exactly the
classic-DTSS deadlock the paper's Sec. 5.2(I) improvement fixes.  The
screen is :func:`admit`, which the real runtime's master applies too.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Any, Callable, Mapping, Optional, Union

from ..core import Scheduler, make
from ..core.acp import IMPROVED_ACP, AcpModel
from ..obs import ObsEvent
from ..workloads import Workload
from . import fastpath
from .cluster import ClusterSpec
from .des import DesCluster, DesWorker
from .events import SimulationError
from .metrics import SimResult

__all__ = [
    "StarvationError",
    "admit",
    "simulate",
    "make_for_cluster",
    "MasterSlaveSimulation",
]

SchedulerLike = Union[str, Scheduler, Callable[[int, int], Scheduler]]


class StarvationError(SimulationError):
    """No slave has ACP above the availability threshold (paper 5.2-I)."""


def admit(
    scheduler: Scheduler,
    acp_model: AcpModel,
    reports: Mapping[int, tuple[float, int]],
) -> dict[int, int]:
    """Paper step 1(a), for every master substrate: register each PE's
    start-up ACP, from its ``(V_i, Q_i)`` report, before the first
    assignment; a PE under the model's threshold is registered at 0 and
    sits the computation out.  Returns the ACPs by worker id; raises
    :class:`StarvationError` when no PE is admitted."""
    acps = {
        wid: acp_model.acp(v, q) if acp_model.available(v, q) else 0
        for wid, (v, q) in reports.items()
    }
    if not any(acps.values()):
        raise StarvationError(
            "no worker has ACP above the availability threshold; "
            "this is the classic-DTSS starvation the paper's "
            "Sec. 5.2 scaled ACP model avoids"
        )
    for wid, acp in acps.items():
        scheduler.observe_acp(wid, acp)
    return acps


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
            name = "S"
    if name in ("DTSS", "DFSS", "DFISS", "DTFSS"):
        kwargs.setdefault("acp_model", acp_model)
    return make(name, total, cluster.size, **kwargs)


@dataclasses.dataclass
class _WorkerState(DesWorker):
    pending_piggyback: float = 0.0  # bytes of results to attach
    #: start, stop, stage, acp-at-assignment
    pending_chunk: Optional[tuple[int, int, int, Optional[int]]] = None


class MasterSlaveSimulation(DesCluster[_WorkerState]):
    """One simulated run; construct and call :meth:`run` once."""

    SRC = "sim.master"
    STALLED = "_master_free"
    STRANDED = (
        "every worker died with iterations outstanding; the loop "
        "cannot complete"
    )
    #: request, assign, compute and result per chunk; the dry request
    #: and terminate per participant (plus its start-up ``acp-update``
    #: under a distributed scheme).
    TRACE_PER_CHUNK = 4
    TRACE_PER_PE = 2

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
        super().__init__(
            _WorkerState, workload, cluster, collect_results, chaos,
            collector,
        )
        self.fast = fast
        self.scheduler = scheduler
        #: when the request being asked about reached the master.
        self._arrival = 0.0
        #: how the DES and the fast path's non-formula arm ask.
        self._step = scheduler.stepper(self._requester)
        scheduler.bind_workload(workload)
        #: stage decisions made since the last request, mirrored into
        #: ``adapt`` events on an observed run; None when unobserved or
        #: when the scheduler keeps the inert
        #: ``Scheduler.drain_decisions`` (a fixed scheme makes none).
        drain = scheduler.drain_decisions
        inert = getattr(drain, "__func__", None) is Scheduler.drain_decisions
        self._decisions = None if inert or not self.observing else drain
        self.acp_model = acp_model
        self._master_free = 0.0
        self._master_link_free = 0.0
        #: intervals lost to worker deaths, awaiting reassignment in
        #: loop order (FIFO: first interval lost is first reassigned).
        self._requeue: collections.deque[tuple[int, int]] = (
            collections.deque()
        )

    # -- helpers ---------------------------------------------------------------

    def _acp_now(self, state: _WorkerState, t: float) -> int:
        node = state.node
        return self.acp_model.acp(
            float(node.virtual_power or 1.0), node.load.q_at(t)
        )

    def _register_acp(self, state: _WorkerState, t: float) -> None:
        """Step 1(a): the master learns ``state``'s ACP before it
        assigns to it (at start-up, and again for a late joiner)."""
        acp = self._acp_now(state, t)
        self.scheduler.observe_acp(state.index, acp)
        if self.observing:
            self._emit(ObsEvent(
                "acp-update", self.SRC, t, state.index, acp=acp,
            ))

    def _requester(self, wid: int) -> tuple[float, int]:
        """``(V_i, Q_i)`` of ``wid``, ``Q_i`` when its request arrived."""
        node = self.cluster.nodes[wid]
        return (
            float(node.virtual_power or 1.0),
            node.load.q_at(self._arrival),
        )

    # -- protocol events ---------------------------------------------------------

    def next_work(self, state: _WorkerState) -> None:
        """Worker transmits a request (with piggy-backed results)."""
        if self._message_faults and self._message_held(
            state, self.next_work
        ):
            return
        t = self.queue.now
        node = state.node
        piggyback = state.pending_piggyback
        nbytes = self.cluster.request_bytes + piggyback
        state.pending_piggyback = 0.0
        # ``NodeSpec.transfer_time``, inline.
        tx = node.latency + nbytes / node.bandwidth
        metrics = state.metrics
        if self._shared_medium:
            # Shared-medium contention: wait for the segment, then hold
            # it.  A switched link never waits: no zero is added.
            tx_start = self._acquire_segment(node, t, tx)
            metrics.t_wait += tx_start - t
        else:
            tx_start = t
        metrics.t_com += tx
        acp = (
            self._acp_now(state, t)
            if self.scheduler.distributed
            else None
        )
        if self.observing:
            self._emit((
                "request", self.SRC, t, state.index,
                None, None, None, acp, None, "", None,
            ))
        # A request that follows a computed chunk delivers its results,
        # however few bytes they take (``result_bytes_per_item`` may be
        # 0): the chunk is safe, and ``T_p`` moves, when it lands.
        self.queue.push(
            tx_start + tx, self._master_receive, state,
            acp, bool(state.undelivered), nbytes,
        )

    def _master_receive(
        self,
        state: _WorkerState,
        acp: Optional[int],
        carries_results: bool,
        nbytes: float,
    ) -> None:
        port_arrival = self.queue.now
        cluster = self.cluster
        # The master's single NIC: inbound payloads serialize (the
        # paper's "contend for master access" effect on result
        # collection).
        link_free = self._master_link_free
        recv_start = (
            port_arrival if port_arrival > link_free else link_free
        )
        arrival = recv_start + nbytes / cluster.master_bandwidth
        self._master_link_free = arrival
        if carries_results:
            if arrival > self._last_result_arrival:
                self._last_result_arrival = arrival
            if self.observing and state.undelivered:
                delivered = state.undelivered[0]
                self._emit((
                    "result", self.SRC, arrival, state.index,
                    delivered[1], delivered[2], None, None, None, "",
                    None,
                ))
            state.undelivered.clear()  # results safely delivered
        master_free = self._master_free
        service_start = arrival if arrival > master_free else master_free
        service_end = service_start + cluster.master_service
        self._master_free = service_end
        # Master NIC queueing + master queueing + service is wait time
        # for the slave.
        metrics = state.metrics
        metrics.t_wait += service_end - port_arrival
        reply_tx = state.reply_tx
        if self._requeue:
            start, stop = self._requeue.popleft()
            stage = 0
        else:
            self._arrival = arrival
            asked = self._step(state.index, acp)
            if self._decisions is not None:
                for d in self._decisions():
                    self._emit(ObsEvent(
                        "adapt", self.SRC, service_end, state.index,
                        start=d.base, stop=d.base + d.size,
                        stage=d.stage, value=d.reward,
                        detail=d.summary(),
                    ))
            if asked is None:
                if self._work_may_reappear():
                    # A failing peer still holds undelivered results:
                    # park this worker; its reply comes when (if) work
                    # reappears.
                    self._park(state, service_end)
                    return
                metrics.t_com += reply_tx
                self.queue.push(
                    service_end + reply_tx, self._worker_terminate, state
                )
                return
            start, stop, stage = asked
        if self._shared_medium:
            reply_start = self._acquire_segment(
                state.node, service_end, reply_tx
            )
            metrics.t_wait += reply_start - service_end
        else:
            reply_start = service_end
        metrics.t_com += reply_tx
        if self.observing:
            self._emit((
                "assign", self.SRC, service_end, state.index,
                start, stop, stage, acp, None, "", None,
            ))
        state.pending_chunk = (start, stop, stage, acp)
        self.queue.push(
            reply_start + reply_tx, self._worker_compute, state
        )

    def _worker_compute(self, state: _WorkerState) -> None:
        assert state.pending_chunk is not None
        start, stop, stage, acp = state.pending_chunk
        state.pending_chunk = None
        state.pending_piggyback = (
            (stop - start) * self.cluster.result_bytes_per_item
        )
        self._compute(state, start, stop, stage, acp, self.next_work)

    # -- failure injection --------------------------------------------------

    def _work_may_reappear(self) -> bool:
        """True while a still-failing worker holds undelivered work."""
        return any(
            s.index in self._pending_failers
            and (s.undelivered or s.pending_chunk is not None)
            for s in self._participants
        )

    def _lose(
        self, state: _WorkerState, spans: list[tuple[int, int]]
    ) -> None:
        if state.pending_chunk is not None:
            self._requeue.append(state.pending_chunk[:2])
            state.pending_chunk = None
        self._requeue.extend(spans)
        state.pending_piggyback = 0.0

    def _stranded(self) -> bool:
        return all(s.dead for s in self._participants) and (
            bool(self._requeue) or not self.scheduler.finished
        )

    def _rejoin(self, state: _WorkerState) -> None:
        # A late joiner re-registers its ACP first (paper step 1(a)).
        if self.scheduler.distributed:
            self._register_acp(state, self.queue.now)
        self.next_work(state)

    def _reply_parked(
        self, state: _WorkerState, then: Callable[..., None]
    ) -> None:
        """The master's late reply to a parked worker."""
        reply_tx = state.reply_tx
        state.metrics.t_com += reply_tx
        self.queue.push(self.queue.now + reply_tx, then, state)

    def _drain_parked(self) -> None:
        """Hand requeued work to parked workers; terminate the rest."""
        while self._requeue and self._parked:
            state = self._parked.pop(0)
            if state.dead:
                continue
            start, stop = self._requeue.popleft()
            if self.observing:
                self._emit(ObsEvent(
                    "assign", self.SRC, self.queue.now, state.index,
                    start=start, stop=stop, stage=0,
                    detail="requeue",
                ))
            state.pending_chunk = (start, stop, 0, None)
            self._reply_parked(state, self._worker_compute)
        if not self._work_may_reappear() and not self._requeue \
                and self.scheduler.finished:
            for state in self._parked:
                if not state.dead:
                    self._reply_parked(state, self._worker_terminate)
            self._parked.clear()

    # -- run -----------------------------------------------------------------------

    def _label(self) -> tuple[str, int]:
        return self.scheduler.name, getattr(
            self.scheduler, "rederivations", 0
        )

    def _finish(
        self, rows: list[tuple[Any, ...]], t_p: float, events: int
    ) -> SimResult:
        # A stepper that reads the requester (adaptive, or any scheme
        # asked through ``next_chunk``) closes over ``self._requester``:
        # drop it so a finished run frees by refcount alone.
        self._step = None
        return super()._finish(rows, t_p, events)

    def _fast_reason(self) -> Optional[str]:
        return fastpath.master_fast_reason(self)

    def _run_fast(self) -> SimResult:
        return fastpath.run_fast_master(self)

    def _prepare(self) -> None:
        # Step 1(a): availability screen + initial ACP registration.
        if self.scheduler.distributed:
            acps = admit(self.scheduler, self.acp_model, {
                s.index: (float(s.node.virtual_power or 1.0),
                          s.node.load.q_at(0.0))
                for s in self.workers
            })
            self._participants = [s for s in self.workers if acps[s.index]]
            if self.observing:
                # A screened-out PE never asks: no acp-update for it.
                for s in self._participants:
                    self._emit(ObsEvent(
                        "acp-update", self.SRC, 0.0, s.index,
                        acp=acps[s.index],
                    ))


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
