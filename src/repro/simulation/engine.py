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
* **lost-work sink** -- :class:`repro.core.master.MasterState`, the
  master the runtime and MPI share: a dead slave's interval is
  requeued, and a dry slave parks while a failing peer holds work;
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

from typing import Any, Callable, Mapping, Optional, Union

from ..core import Scheduler, make
from ..core.acp import IMPROVED_ACP, AcpModel
from ..core.master import PARK, MasterState
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


class MasterSlaveSimulation(DesCluster[DesWorker]):
    """One simulated run; construct and call :meth:`run` once."""

    SRC = "sim.master"
    WORKER = DesWorker
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
        if scheduler.workers != len(cluster.nodes):
            raise SimulationError(
                f"scheduler built for {scheduler.workers} workers but "
                f"cluster has {cluster.size}"
            )
        if scheduler.total != workload.size:
            raise SimulationError(
                f"scheduler covers {scheduler.total} iterations but "
                f"workload has {workload.size}"
            )
        self.scheduler = scheduler
        super().__init__(
            workload, cluster, collect_results, chaos, collector, fast,
        )
        #: when the request being asked about reached the master.
        self._arrival = 0.0
        scheduler.bind_workload(workload)
        self.acp_model = acp_model
        #: ``V_i`` per PE, read once per run for either path.
        self._powers = self.cluster.virtual_powers()
        self._master_free = 0.0
        self._master_link_free = 0.0

    def _build_des(self) -> None:
        super()._build_des()
        #: the master's bookkeeping (the fast path asks the scheduler's
        #: stepper itself).
        self.master = MasterState(
            self.scheduler, self._requester, self._failer_holds_work,
            self.SRC, self._emit if self.observing else None,
        )

    # -- helpers ---------------------------------------------------------------

    def _acp_now(self, state: DesWorker, t: float) -> int:
        return self.acp_model.acp(
            self._powers[state.index], state.node.load.q_at(t)
        )

    def _register_acp(self, state: DesWorker, t: float) -> None:
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
        return (
            self._powers[wid],
            self.cluster.nodes[wid].load.q_at(self._arrival),
        )

    # -- protocol events ---------------------------------------------------------

    def next_work(self, state: DesWorker) -> None:
        """Worker transmits a request (with piggy-backed results)."""
        if self._message_faults and self._message_held(
            state, self.next_work
        ):
            return
        t = self.queue.now
        node = state.node
        cluster = self.cluster
        # The previous chunk's results ride on the request.
        done = state.undelivered
        nbytes = cluster.request_bytes + (
            (done[0][2] - done[0][1]) * cluster.result_bytes_per_item
            if done else 0.0
        )
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
            acp, bool(done), nbytes,
        )

    def _master_receive(
        self,
        state: DesWorker,
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
        self._arrival = arrival
        chunk = self.master.request(
            state.index, acp, carries_results, service_end, arrival
        )
        if chunk is PARK:
            # A failing peer still holds undelivered results: the reply
            # comes when (if) work reappears.
            return
        if chunk is None:
            metrics.t_com += reply_tx
            self.queue.push(
                service_end + reply_tx, self._worker_terminate, state
            )
            return
        if self._shared_medium:
            reply_start = self._acquire_segment(
                state.node, service_end, reply_tx
            )
            metrics.t_wait += reply_start - service_end
        else:
            reply_start = service_end
        metrics.t_com += reply_tx
        start, stop, stage = chunk
        self.queue.push(
            reply_start + reply_tx, self._compute, state,
            start, stop, stage, acp, self.next_work,
        )

    # -- failure injection --------------------------------------------------

    def _failer_holds_work(self, outstanding) -> bool:
        """True while a worker with a death still ahead holds a span."""
        return not self._pending_failers.isdisjoint(outstanding)

    def _lose(
        self, state: DesWorker, spans: list[tuple[int, int]]
    ) -> None:
        # ``spans`` or the chunk whose reply was in flight: its one span.
        self.master.lose(state.index)

    def _stranded(self) -> bool:
        workers = self.workers
        return all(workers[i].dead for i in self._participants) and (
            bool(self.master.requeue) or not self.scheduler.finished
        )

    def _rejoin(self, state: DesWorker) -> None:
        # A late joiner re-registers its ACP first (paper step 1(a)).
        if self.scheduler.distributed:
            self._register_acp(state, self.queue.now)
        self.next_work(state)

    def _drain_parked(self) -> None:
        """The master's late replies to parked workers."""
        now = self.queue.now
        for wid, span in self.master.release(now):
            state = self.workers[wid]
            reply_tx = state.reply_tx
            state.metrics.t_com += reply_tx
            if span is None:
                self.queue.push(
                    now + reply_tx, self._worker_terminate, state
                )
            else:
                self.queue.push(
                    now + reply_tx, self._compute, state,
                    span[0], span[1], 0, None, self.next_work,
                )

    # -- run -----------------------------------------------------------------------

    def _label(self) -> tuple[str, int]:
        return self.scheduler.name, getattr(
            self.scheduler, "rederivations", 0
        )

    def _finish(
        self, rows: list[tuple[Any, ...]], t_p: float, events: int
    ) -> SimResult:
        # The master and a stepper that reads the requester (adaptive,
        # or any scheme asked through ``next_chunk``) close over this
        # run: drop them so a finished run frees by refcount alone.
        self.master = None
        return super()._finish(rows, t_p, events)

    def _fast_reason(self) -> Optional[str]:
        return fastpath.master_fast_reason(self)

    def _run_fast(self) -> SimResult:
        return fastpath.run_fast_master(self)

    def _prepare(self) -> None:
        # Step 1(a): availability screen + initial ACP registration.
        if self.scheduler.distributed:
            acps = admit(self.scheduler, self.acp_model, {
                i: (self._powers[i], node.load.q_at(0.0))
                for i, node in enumerate(self.cluster.nodes)
            })
            self._participants = [i for i in self._participants if acps[i]]
            if self.observing:
                # A screened-out PE never asks: no acp-update for it.
                for i in self._participants:
                    self._emit(ObsEvent(
                        "acp-update", self.SRC, 0.0, i, acp=acps[i],
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
