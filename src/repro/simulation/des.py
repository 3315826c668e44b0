"""The DES chassis: everything the simulated substrates share.

The paper times every scheme -- centralized (Sec. 2.2), distributed
(Sec. 5.2) and TreeS (Sec. 5) -- with one accounting, so the simulator
has one implementation of it.  :class:`DesCluster` owns the virtual
clock, the fail-stop worker lifecycle, fault-plan scheduling, the
compute step and the ``T_com / T_wait / T_comp / T_p`` books; a
substrate (:mod:`~repro.simulation.engine`,
:mod:`repro.decentral.sim_engine`, :mod:`~repro.simulation.tree_engine`)
subclasses it and says only *where the next chunk comes from*, through
the hook methods grouped at the top of the class -- :meth:`next_work`
first of all.  The analytic fast path
(:mod:`~repro.simulation.fastpath`) is a run mode of the same chassis:
:meth:`DesCluster.run` is the one gate that chooses it, and both modes
share one :meth:`~DesCluster._prepare` step before the run and one
:meth:`~DesCluster._finish` epilogue after it.

Accounting matches Tables 2-3: per-PE ``T_com`` is link occupancy,
``T_wait`` is queueing for whatever the substrate serializes plus
terminal idling until the run ends (the paper's rows for fast PEs sum
to ``T_p``), ``T_comp`` is iteration execution under the node's load
trace, and ``T_p`` is the instant the last result became safe (landed
on the master, or became durable where there is no master).

Fail-stop semantics: a PE that dies loses every message it has in
flight and every computed chunk whose results have not become safe
(``DesWorker.undelivered``); those chunks are un-booked from the
records, the metrics and the collected results, and the substrate
re-offers their intervals to the survivors, so coverage of ``[0, I)``
stays exactly-once.  Deaths come from ``NodeSpec.fails_at`` and from
the :class:`~repro.chaos.FaultPlan`, merged into one per-worker
schedule.
"""

from __future__ import annotations

import dataclasses
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Generic,
    Optional,
    Sequence,
    TypeVar,
)

import numpy as np

from ..obs import Collector, ObsEvent, make_event
from ..obs import resolve as _resolve_collector
from ..obs import sink as _collector_sink
from ..workloads import Workload, WorkloadError
from . import fastpath
from .cluster import ClusterSpec, NodeSpec
from .events import EventQueue, SimulationError
from .loadgen import ConstantLoad, OverlayLoad, integrate_compute
from .metrics import LazyChunkList, SimResult, WorkerMetrics

if TYPE_CHECKING:
    from ..chaos.plan import FaultPlan

__all__ = ["DesWorker", "DesCluster"]


@dataclasses.dataclass
class DesWorker(object):
    """What every substrate tracks per PE; subclasses add the rest."""

    index: int
    node: NodeSpec
    metrics: WorkerMetrics
    done: bool = False
    dead: bool = False
    #: incarnation counter: bumped at every death so queue entries
    #: pushed by a previous incarnation are skipped after a chaos
    #: restart (the guard is in :meth:`EventQueue.run`).
    epoch: int = 0
    #: ``speed / q`` under a :class:`ConstantLoad`, where the compute
    #: integral is one division; None = walk the trace.  Set by
    #: :meth:`DesCluster.run` for the DES and the fast path alike.
    rate: Optional[float] = None
    #: the link times of a bare request and a bare reply
    #: (``node.transfer_time`` of the cluster's message sizes), bound by
    #: :meth:`DesCluster.run` for the DES only.
    request_tx: float = 0.0
    reply_tx: float = 0.0
    #: computed chunks (the rows :meth:`DesCluster._compute` booked)
    #: whose results are not safe yet -- still on this PE or on the
    #: wire; rolled back if the PE dies.
    undelivered: list[tuple[Any, ...]] = dataclasses.field(
        default_factory=list
    )


W = TypeVar("W", bound=DesWorker)


def _overlay_load_spikes(
    cluster: ClusterSpec, chaos: "FaultPlan"
) -> ClusterSpec:
    """A copy of ``cluster`` with the plan's LoadSpikes overlaid.

    The caller's spec is never mutated: affected nodes are replaced
    with copies whose trace is an :class:`OverlayLoad`.
    """
    windows: dict[int, list[tuple[float, float, int]]] = {}
    for ev in chaos.spikes:
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


class DesCluster(Generic[W]):
    """One simulated run; construct and call :meth:`run` once."""

    #: event-source tag of the substrate's ``ObsEvent`` stream.
    SRC: str
    #: name of the attribute holding the busy-until time of the one
    #: resource the substrate serializes (master, counter, master
    #: NIC): what a chaos stall freezes.
    STALLED: str
    #: error raised when :meth:`_stranded`.
    STRANDED: str
    #: fast-path policy, read by :meth:`run` alone: ``"auto"`` (take it
    #: when eligible), ``True`` (require it; raise when ineligible) or
    #: ``False`` (always run the DES).  A substrate with a fast path
    #: sets it per run and answers :meth:`_fast_reason` /
    #: :meth:`_run_fast`; the others keep False.
    fast: object = False
    #: the workload's cost prefix sums as plain floats (set by
    #: :meth:`run`): a chunk's cost is one list subtraction.
    _pref: list[float]
    #: True when some PE is on a shared LAN segment (set by :meth:`run`
    #: for the DES): only then does a transfer wait for the medium.
    _shared_medium: bool

    def __init__(
        self,
        worker_type: Callable[..., W],
        workload: Workload,
        cluster: ClusterSpec,
        collect_results: bool,
        chaos: Optional["FaultPlan"],
        collector: Optional[Collector],
    ) -> None:
        #: unified event stream sink; falsy NullCollector when disabled.
        self.obs = _resolve_collector(collector)
        # Cached truthiness: the hot loops test this plain bool
        # (~5x cheaper than NullCollector.__bool__ per gate);
        # the collector never changes after construction.
        self.observing = bool(self.obs)
        #: where the emission sites put an event: resolved once, so a
        #: plain buffer costs a list append per event and any other
        #: collector one ``emit`` call.
        self._emit = _collector_sink(self.obs)
        self.chaos = chaos
        if chaos is not None:
            if chaos.max_worker >= cluster.size:
                raise SimulationError(
                    f"fault plan targets worker {chaos.max_worker} but "
                    f"cluster has {cluster.size} nodes"
                )
            cluster = _overlay_load_spikes(cluster, chaos)
        self.workload = workload
        self.cluster = cluster
        self.collect_results = collect_results
        self.queue = EventQueue()
        self.workers: list[W] = [
            worker_type(
                index=i, node=node, metrics=WorkerMetrics(name=node.name)
            )
            for i, node in enumerate(cluster.nodes)
        ]
        #: the PEs that take part (a substrate may screen some out
        #: before the run); faults and terminal idling apply to these.
        self._participants: list[W] = list(self.workers)
        #: one row per computed chunk, ``ChunkRecord``'s fields in
        #: order: (worker, start, stop, assigned_at, completed_at,
        #: stage, acp) -- what the fast path writes too.
        self._chunks: list[tuple[Any, ...]] = []
        self._results: list[tuple[int, np.ndarray]] = []
        #: when the last result became safe; ``T_p`` at the end.
        self._last_result_arrival = 0.0
        #: shared-medium availability per LAN segment id.
        self._segment_free: dict[str, float] = {}
        #: per-worker list of scheduled death times still ahead
        #: (fails_at plus chaos deaths), consumed in time order.
        self._death_schedule: dict[int, list[float]] = {}
        #: participants with a scheduled death still ahead.
        self._pending_failers: set[int] = set()
        #: chaos restarts not yet fired: while > 0 the all-dead check
        #: stays soft because a PE is still coming back.
        self._future_restarts = 0
        #: per-worker (at, kind, extra_seconds) message faults, sorted.
        self._message_faults: dict[
            int, list[tuple[float, str, float]]
        ] = {}
        #: workers told to wait because work may still reappear (a
        #: failing peer holds undelivered results).
        self._parked: list[W] = []

    # -- substrate hooks -----------------------------------------------------

    def next_work(self, state: W) -> None:
        """The idle PE ``state`` asks for its next interval, now (master
        request, counter claim, own queue / partner steal).  The
        substrate answers -- at once or some events later -- by calling
        :meth:`_compute`."""
        raise NotImplementedError

    def _start(self, state: W) -> None:
        """How a PE enters the computation: by default it just asks."""
        self.next_work(state)

    def _rejoin(self, state: W) -> None:
        """What a chaos restart adds to :meth:`_start`: by default
        nothing."""
        self._start(state)

    def _lose(self, state: W, spans: list[tuple[int, int]]) -> None:
        """Re-offer a dead PE's lost intervals to the survivors (and
        whatever it had been assigned but not yet begun)."""
        raise NotImplementedError

    def _stranded(self) -> bool:
        """True when lost work has nobody left to take it."""
        raise NotImplementedError

    def _drain_parked(self) -> None:
        """Wake the PEs in ``_parked`` once a death has settled whether
        work reappears; a substrate that never parks has none."""

    def _label(self) -> tuple[str, int]:
        """Scheme name and ``rederivations`` counter of the result."""
        raise NotImplementedError

    def _fast_reason(self) -> Optional[str]:
        """Why this run cannot take the fast path (None = it can)."""
        raise NotImplementedError

    def _run_fast(self) -> SimResult:
        """The substrate's collapsed loop; it returns through
        :meth:`_finish`."""
        raise NotImplementedError

    def _prepare(self) -> None:
        """What must hold before the first request on either path (the
        master engine screens availability and registers ACPs here); by
        default nothing."""

    def _leak(self, assigned: int) -> str:
        """Error text when coverage is not exact at the end."""
        return (
            f"scheduling leak: assigned {assigned} of "
            f"{self.workload.size} iterations"
        )

    # -- clock and links -----------------------------------------------------

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

    def _pop_message_fault(
        self, state: W, t: float
    ) -> Optional[tuple[float, str, float]]:
        """Consume the worker's due delay/loss fault, if any."""
        faults = self._message_faults.get(state.index)
        if not faults or faults[0][0] > t:
            return None
        return faults.pop(0)

    def _message_held(
        self, state: W, resend: Callable[..., None], *args: Any
    ) -> bool:
        """Apply a due delay/loss to the message ``state`` sends now.

        Delay: the message sits on the wire ``extra`` longer.  Loss:
        the message vanishes and the retransmission goes out after
        ``retry_after`` -- to the protocol the two are the same pause,
        accounted as wait time.  True means ``resend`` is scheduled
        and the caller must not transmit.  Senders test
        ``self._message_faults`` first (empty unless the plan has a
        delay or loss), so a run without them never gets here.
        """
        t = self.queue.now
        fault = self._pop_message_fault(state, t)
        if fault is None:
            return False
        _at, kind, extra = fault
        state.metrics.t_wait += extra
        if self.observing:
            self._emit(ObsEvent(
                "fault", self.SRC, t, state.index, value=extra,
                detail=kind,
            ))
        self.queue.push(t + extra, resend, state, *args)
        return True

    # -- the compute step ----------------------------------------------------

    def _compute(
        self,
        state: W,
        start: int,
        stop: int,
        stage: Optional[int],
        acp: Optional[int],
        then: Callable[..., None],
    ) -> tuple[Any, ...]:
        """Execute ``[start, stop)`` on ``state`` from now; ``then(state)``
        fires when it finishes.  Returns the chunk's row.

        The compute time is integrated up front and booked at once; a
        death before ``completed_at`` un-books the tail (see
        :meth:`_worker_die`).  ``stage`` None (TreeS blocks belong to
        no scheme stage) stays None in the event and is 0 in the row.
        """
        queue = self.queue
        t = queue.now
        pref = self._pref
        if not 0 <= start <= stop < len(pref):
            raise WorkloadError(
                f"chunk [{start}, {stop}) out of range "
                f"[0, {len(pref) - 1}]"
            )
        cost = pref[stop] - pref[start]
        rate = state.rate
        if rate is not None:
            # The ConstantLoad integral, in the exact expression shape
            # of ``integrate_compute`` (and of the fast path).
            finish = t + cost / rate if cost > 1e-12 else t
        else:
            node = state.node
            finish = integrate_compute(t, cost, node.speed, node.load)
        if self.observing:
            self._emit(make_event(
                "compute", self.SRC, t, state.index,
                start, stop, stage, acp, finish - t, "", None,
            ))
        metrics = state.metrics
        metrics.t_comp += finish - t
        metrics.chunks += 1
        metrics.iterations += stop - start
        row = (
            state.index, start, stop, t, finish,
            0 if stage is None else stage, acp,
        )
        self._chunks.append(row)
        state.undelivered.append(row)
        if self.collect_results:
            self._results.append((start, self.workload.execute(start, stop)))
        queue.push(finish, then, state)
        return row

    def _worker_terminate(self, state: W) -> None:
        state.done = True
        state.metrics.finished_at = self.queue.now
        if self.observing:
            self._emit(ObsEvent(
                "terminate", self.SRC, self.queue.now, state.index,
            ))

    # -- failure injection ---------------------------------------------------

    def _schedule_faults(self) -> None:
        """Queue every death (fails_at + plan) and chaos event.

        Deaths from ``NodeSpec.fails_at`` and from the fault plan merge
        into one per-worker schedule so the failer bookkeeping (and the
        parking heuristic built on it) sees them uniformly.  Events
        aimed at a PE that does not take part are dropped.  Scheduling
        order decides same-instant ties: restarts and stalls in plan
        order, then deaths per worker in time order.
        """
        taking_part = {s.index for s in self._participants}
        deaths: dict[int, list[float]] = {}
        for s in self._participants:
            if s.node.fails_at is not None:
                deaths.setdefault(s.index, []).append(
                    float(s.node.fails_at)
                )
        if self.chaos is not None:
            # One loop dispatches on ``kind``; the event union has no
            # common shape beyond ``kind`` and ``at``.
            events: Sequence[Any] = self.chaos.events
            for ev in events:
                kind = ev.kind
                if kind == "stall":
                    self.queue.push(
                        float(ev.at), self._stall, None,
                        float(ev.duration),
                    )
                elif ev.worker not in taking_part:
                    continue
                elif kind == "death":
                    deaths.setdefault(ev.worker, []).append(float(ev.at))
                elif kind == "restart":
                    self._future_restarts += 1
                    self.queue.push(
                        float(ev.at), self._worker_restart, None,
                        self.workers[ev.worker],
                    )
                elif kind in ("delay", "loss"):
                    self._message_faults.setdefault(ev.worker, [])
            for idx in self._message_faults:
                self._message_faults[idx] = self.chaos.message_faults(idx)
        for idx, times in deaths.items():
            times.sort()
            self._death_schedule[idx] = times
            self._pending_failers.add(idx)
            for at in times:
                self.queue.push(
                    at, self._worker_die, None, self.workers[idx]
                )

    def _worker_die(self, state: W) -> None:
        """Fail-stop: roll back undelivered work and re-offer it."""
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
            self._emit(ObsEvent(
                "fault", self.SRC, t, state.index, detail="death",
            ))
        lost, state.undelivered = state.undelivered, []
        chunks = self._chunks
        for row in lost:
            # Remove the (now lost) execution row; it re-enters when a
            # survivor recomputes the interval.
            start, stop, finish = row[1], row[2], row[4]
            if finish > t:
                # Died mid-chunk: un-book the never-executed tail of
                # the pre-integrated compute time.
                state.metrics.t_comp -= finish - t
            state.metrics.chunks -= 1
            state.metrics.iterations -= stop - start
            for i in range(len(chunks) - 1, -1, -1):
                if chunks[i] is row:
                    del chunks[i]
                    break
            if self.collect_results:
                for i in range(len(self._results) - 1, -1, -1):
                    if self._results[i][0] == start:
                        del self._results[i]
                        break
        self._lose(state, [(row[1], row[2]) for row in lost])
        if self._future_restarts == 0 and self._stranded():
            raise SimulationError(self.STRANDED)
        self._drain_parked()

    def _park(self, state: W, at: float) -> None:
        """Nothing to hand out now, but a failing peer holds work that
        may reappear: ``state`` waits for :meth:`_drain_parked`."""
        if self.observing:
            self._emit(ObsEvent("park", self.SRC, at, state.index))
        self._parked.append(state)

    def _worker_restart(self, state: W) -> None:
        """A chaos restart: the PE rejoins as a fresh, idle one.

        Anything the dead incarnation held was rolled back and
        re-offered at death; the revived worker simply enters the
        computation again.
        """
        self._future_restarts -= 1
        if not state.dead:
            # The scheduled death never hurt this worker (it finished
            # first, or the plan was applied to a reliable node).
            return
        state.dead = False
        state.done = False
        if self.observing:
            self._emit(ObsEvent(
                "restart", self.SRC, self.queue.now, state.index,
            ))
        self._rejoin(state)

    def _stall(self, duration: float) -> None:
        """The substrate's serialized resource (``STALLED``) serves
        nothing for ``duration`` from now."""
        now = self.queue.now
        if self.observing:
            self._emit(ObsEvent(
                "fault", self.SRC, now, value=duration, detail="stall",
            ))
        setattr(
            self, self.STALLED,
            max(getattr(self, self.STALLED), now + duration),
        )

    # -- run -----------------------------------------------------------------

    def run(self) -> SimResult:
        # The one gate: decide, refuse, prepare, then run either way.
        take_fast = False
        if self.fast is not False:
            reason = self._fast_reason()
            take_fast = reason is None and fastpath.fast_enabled()
            if self.fast is True and not take_fast:
                raise SimulationError(
                    f"fast=True but the run is not fast-path eligible: "
                    f"{reason or 'disabled via ' + fastpath.ENV_FAST}"
                )
        self._prepare()
        self._pref = self.workload.prefix_list()
        for state in self.workers:
            load = state.node.load
            if type(load) is ConstantLoad:
                state.rate = state.node.speed / load.q
        if take_fast:
            return self._run_fast()
        # Per-run link constants of the DES's per-chunk steps; the fast
        # loops build their own columns, so only this branch pays.
        request_bytes = self.cluster.request_bytes
        reply_bytes = self.cluster.reply_bytes
        for state in self.workers:
            state.request_tx = state.node.transfer_time(request_bytes)
            state.reply_tx = state.node.transfer_time(reply_bytes)
        self._shared_medium = any(
            node.segment is not None for node in self.cluster.nodes
        )
        self._schedule_faults()
        for state in self._participants:
            self._start(state)
        self.queue.run()
        return self._finish(
            self._chunks, self._last_result_arrival, self.queue.processed
        )

    def _finish(
        self, rows: list[tuple[Any, ...]], t_p: float, events: int
    ) -> SimResult:
        """The epilogue of every simulated run, DES or fast path: close
        the books on ``rows`` (in compute order) and build the result."""
        # Terminal idling: PEs that finished early wait for the run to
        # end (paper rows for fast PEs sum to ~T_p).  Dead workers do
        # not idle -- their clock stopped at death.
        for state in self._participants:
            if state.dead:
                continue
            tracked = state.metrics.busy
            if tracked < t_p:
                state.metrics.t_wait += t_p - tracked
        # Per-PE ``iterations`` move with the rows on both paths (booked
        # and un-booked with each row by the DES, written back from the
        # fast loops' columns), so coverage is O(P) to check, not O(rows).
        assigned = sum(s.metrics.iterations for s in self.workers)
        if assigned != self.workload.size:
            raise SimulationError(self._leak(assigned))
        scheme, rederivations = self._label()
        result = SimResult(
            scheme=scheme,
            workers=[s.metrics for s in self.workers],
            t_p=t_p,
            chunks=LazyChunkList(rows),
            rederivations=rederivations,
            events=events,
        )
        if self.collect_results:
            self._results.sort(key=lambda pair: pair[0])
            result.results = (
                np.concatenate([r for _, r in self._results])
                if self._results
                else np.zeros(0)
            )
        return result
