"""Discrete-event execution of Tree Scheduling (TreeS).

TreeS (Kim & Purtilo 1996; paper Sec. 5) is decentralized: there is no
per-chunk master request.  Each slave starts with a contiguous block
(even split in the *simple* experiments, virtual-power-proportional in
the *distributed* ones); a slave that runs dry steals **half of a
predefined partner's remaining iterations**, sweeping its partner list
in the fixed order of :func:`repro.core.tree.partner_order`.

Results "still have to be collected on a single central processor"; the
paper found that sending everything at the end made slaves idle in a
contention storm, so its implementation of record flushes "from time to
time, at predefined time intervals" -- reproduced here as a blocking
flush of accumulated results every ``flush_interval`` of computation.

Termination: work only shrinks, so a slave whose full partner sweep
finds nothing stealable (every partner holds < ``min_steal``) can
finish -- at most ``p - 1`` iterations are outstanding and their owners
will complete them.  ``T_p`` is the arrival of the last result flush at
the master.

Mechanics: a slave computes ``grain`` iterations per event, so a victim
can be stolen from between events (grain 1 = per-iteration fidelity);
steal round-trips cost request/reply transfers on both links and are
accounted as wait time for the thief.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from ..core.tree import TreePartition, partner_order
from ..obs import ObsEvent
from ..obs import resolve as _resolve_collector
from ..workloads import Workload
from .cluster import ClusterSpec, NodeSpec
from .events import EventQueue, SimulationError
from .loadgen import integrate_compute
from .metrics import ChunkRecord, SimResult, WorkerMetrics

__all__ = ["simulate_tree", "TreeSimulation"]

#: Event-source tag for the unified observability stream.
_SRC = "sim.tree"


@dataclasses.dataclass
class _TreeWorker(object):
    index: int
    node: NodeSpec
    metrics: WorkerMetrics
    ranges: list[list[int]]  # list of mutable [start, stop) ranges
    partners: list[int]
    pending_items: int = 0  # computed results not yet flushed
    next_flush: float = 0.0
    sweep_pos: int = 0
    done: bool = False
    dead: bool = False
    current_block: Optional[tuple[int, int]] = None
    #: computed blocks whose results have not left this PE yet; lost
    #: (and rolled back) if the PE dies.
    unflushed: list = dataclasses.field(default_factory=list)
    #: blocks inside the flush message currently on the wire; lost with
    #: the sender under fail-stop.
    inflight: list = dataclasses.field(default_factory=list)
    #: incarnation counter; see the master-slave engine.
    epoch: int = 0

    def remaining(self) -> int:
        return sum(r[1] - r[0] for r in self.ranges)

    def pop_block(self, grain: int) -> Optional[tuple[int, int]]:
        """Take up to ``grain`` iterations from the front of the queue."""
        while self.ranges and self.ranges[0][0] >= self.ranges[0][1]:
            self.ranges.pop(0)
        if not self.ranges:
            return None
        r = self.ranges[0]
        take = min(grain, r[1] - r[0])
        block = (r[0], r[0] + take)
        r[0] += take
        if r[0] >= r[1]:
            self.ranges.pop(0)
        return block

    def steal_half(self, min_steal: int) -> Optional[tuple[int, int]]:
        """Give away the back half of the remaining work, if enough."""
        total = self.remaining()
        if total < min_steal:
            return None
        take = total // 2
        stolen_lo: Optional[int] = None
        stolen_hi: Optional[int] = None
        # Peel ranges from the tail.  TreeS transfers a single interval
        # when possible; across multiple ranges we return the last
        # contiguous piece and leave the rest for the next steal.
        last = self.ranges[-1]
        size = last[1] - last[0]
        if size <= take:
            stolen_lo, stolen_hi = last[0], last[1]
            self.ranges.pop()
        else:
            stolen_lo, stolen_hi = last[1] - take, last[1]
            last[1] -= take
        return (stolen_lo, stolen_hi)

    def strip_range(self) -> Optional[tuple[int, int]]:
        """Take one whole remaining range, no ``min_steal`` threshold.

        Dead-PE recovery: survivors reclaim a dead partner's queue in
        full, however small, or its residue would be lost forever.
        """
        while self.ranges and self.ranges[-1][0] >= self.ranges[-1][1]:
            self.ranges.pop()
        if not self.ranges:
            return None
        lo, hi = self.ranges.pop()
        return (lo, hi)


class TreeSimulation(object):
    """One simulated TreeS run; construct and call :meth:`run` once."""

    def __init__(
        self,
        workload: Workload,
        cluster: ClusterSpec,
        weighted: bool = False,
        flush_interval: float = 2.0,
        grain: int = 1,
        min_steal: int = 2,
        collect_results: bool = False,
        chaos=None,
        collector=None,
    ) -> None:
        self.obs = _resolve_collector(collector)
        # Cached truthiness: the hot loops test this plain bool
        # (~5x cheaper than NullCollector.__bool__ per gate);
        # the collector never changes after construction.
        self.observing = bool(self.obs)
        if flush_interval <= 0:
            raise SimulationError("flush_interval must be > 0")
        if grain < 1:
            raise SimulationError(f"grain must be >= 1, got {grain}")
        if min_steal < 2:
            raise SimulationError(f"min_steal must be >= 2, got {min_steal}")
        self.chaos = chaos
        if chaos is not None:
            if chaos.max_worker >= cluster.size:
                raise SimulationError(
                    f"fault plan targets worker {chaos.max_worker} but "
                    f"cluster has {cluster.size} nodes"
                )
            from .engine import _overlay_load_spikes

            cluster = _overlay_load_spikes(cluster, chaos)
        self.workload = workload
        self.cluster = cluster
        self.flush_interval = float(flush_interval)
        self.grain = int(grain)
        self.min_steal = int(min_steal)
        self.collect_results = collect_results
        self.queue = EventQueue()
        partition = (
            TreePartition.weighted(
                workload.size, cluster.virtual_powers()
            )
            if weighted
            else TreePartition.even(workload.size, cluster.size)
        )
        blocks = partition.blocks()
        self.workers = [
            _TreeWorker(
                index=i,
                node=node,
                metrics=WorkerMetrics(name=node.name),
                ranges=[[lo, hi]] if hi > lo else [],
                partners=partner_order(i, cluster.size),
            )
            for i, (node, (lo, hi)) in enumerate(zip(cluster.nodes, blocks))
        ]
        self.weighted = weighted
        self._master_link_free = 0.0
        self._last_result_arrival = 0.0
        self._chunks: list[ChunkRecord] = []
        self._results: list[tuple[int, np.ndarray]] = []
        self._steals = 0
        self._death_schedule: dict[int, list[float]] = {}
        self._future_restarts = 0
        self._message_faults: dict[int, list[tuple[float, str, float]]] = {}

    # -- fault plumbing ----------------------------------------------------------

    def _alive_action(self, w: _TreeWorker, fn, *args):
        """Event action that no-ops if ``w`` died (or was reborn) since."""
        epoch = w.epoch

        def action(_event) -> None:
            if w.dead or w.epoch != epoch:
                return
            fn(w, *args)

        return action

    def _pop_message_fault(
        self, w: _TreeWorker, t: float
    ) -> Optional[tuple[float, str, float]]:
        faults = self._message_faults.get(w.index)
        if not faults or faults[0][0] > t:
            return None
        return faults.pop(0)

    def _schedule_faults(self) -> None:
        if self.chaos is None:
            return
        deaths: dict[int, list[float]] = {}
        for ev in self.chaos.events:
            kind = ev.kind
            if kind == "death":
                deaths.setdefault(ev.worker, []).append(float(ev.at))
            elif kind == "restart":
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
                    lambda _e, d=float(ev.duration): self._master_stall(d),
                    kind="chaos-stall",
                )
            elif kind in ("delay", "loss"):
                self._message_faults.setdefault(ev.worker, [])
        for idx in self._message_faults:
            self._message_faults[idx] = self.chaos.message_faults(idx)
        for idx, times in deaths.items():
            times.sort()
            self._death_schedule[idx] = times
            for at in times:
                self.queue.schedule_at(
                    at,
                    lambda _e, s=self.workers[idx]: self._worker_die(s),
                    kind="death",
                )

    def _master_stall(self, duration: float) -> None:
        """The master's NIC accepts nothing for ``duration`` from now."""
        if self.observing:
            self.obs.emit(ObsEvent(
                "fault", _SRC, self.queue.now, value=float(duration),
                detail="stall",
            ))
        self._master_link_free = max(
            self._master_link_free, self.queue.now + float(duration)
        )

    def _worker_die(self, w: _TreeWorker) -> None:
        """Fail-stop: computed-but-undelivered results are lost and the
        PE's remaining queue becomes reclaimable by its partners."""
        t = self.queue.now
        schedule = self._death_schedule.get(w.index)
        if schedule:
            schedule.pop(0)
        if w.dead or w.done:
            return
        w.dead = True
        w.epoch += 1
        w.metrics.finished_at = t
        if self.observing:
            self.obs.emit(ObsEvent(
                "fault", _SRC, t, w.index, detail="death",
            ))
        lost = list(w.unflushed) + list(w.inflight)
        w.unflushed.clear()
        w.inflight.clear()
        w.pending_items = 0
        for start, stop in lost:
            for i in range(len(self._chunks) - 1, -1, -1):
                rec = self._chunks[i]
                if rec.worker == w.index and rec.start == start \
                        and rec.stop == stop:
                    if rec.completed_at > t:
                        # Died mid-block: un-book the never-executed
                        # tail of the pre-integrated compute time.
                        w.metrics.t_comp -= rec.completed_at - t
                    w.metrics.chunks -= 1
                    w.metrics.iterations -= stop - start
                    del self._chunks[i]
                    break
            if self.collect_results:
                for i in range(len(self._results) - 1, -1, -1):
                    if self._results[i][0] == start:
                        del self._results[i]
                        break
            # The lost interval rejoins the dead PE's queue, where the
            # partner sweep (strip_range) recovers it -- TreeS has no
            # central requeue, so recovery is decentralized too.
            w.ranges.append([start, stop])
        w.ranges.sort(key=lambda r: r[0])
        merged: list[list[int]] = []
        for r in w.ranges:
            if merged and merged[-1][1] == r[0]:
                merged[-1][1] = r[1]
            else:
                merged.append(r)
        w.ranges = merged
        alive = [s for s in self.workers if not s.dead and not s.done]
        outstanding = sum(s.remaining() for s in self.workers)
        if not alive and self._future_restarts == 0 and outstanding > 0:
            raise SimulationError(
                "every TreeS PE died or finished with iterations "
                "outstanding; the loop cannot complete"
            )

    def _worker_restart(self, w: _TreeWorker) -> None:
        """A chaos restart: the PE rejoins and resumes its own queue."""
        self._future_restarts -= 1
        if not w.dead:
            return
        t = self.queue.now
        w.dead = False
        w.done = False
        w.pending_items = 0
        w.unflushed.clear()
        w.inflight.clear()
        if self.observing:
            self.obs.emit(ObsEvent("restart", _SRC, t, w.index))
        # Rejoin handshake, then resume whatever is left of the queue
        # (or sweep partners if it was emptied while dead).
        delay = w.node.transfer_time(self.cluster.reply_bytes)
        w.metrics.t_com += delay
        w.next_flush = self._next_epoch(t + delay)
        self.queue.schedule(
            delay, self._alive_action(w, self._compute_next),
            kind="chaos-rejoin",
        )

    # -- phases ------------------------------------------------------------------

    def _next_epoch(self, t: float) -> float:
        """First flush epoch strictly after ``t`` (fixed global grid).

        The paper's TreeS sends results "at predefined time intervals";
        a *global* epoch grid means all slaves flush in the same window
        and contend for the master -- the residual contention the paper
        observed ("cannot be totally eliminated").
        """
        import math as _math

        return (_math.floor(t / self.flush_interval) + 1) \
            * self.flush_interval

    def _start_worker(self, w: _TreeWorker) -> None:
        # Initial allocation message from the master.
        delay = w.node.transfer_time(self.cluster.reply_bytes)
        w.metrics.t_com += delay
        w.next_flush = self._next_epoch(delay)
        self.queue.schedule(
            delay, self._alive_action(w, self._compute_next), kind="start"
        )

    def _compute_next(self, w: _TreeWorker) -> None:
        t = self.queue.now
        if w.pending_items and t >= w.next_flush:
            self._flush(w, final=False)
            return
        block = w.pop_block(self.grain)
        if block is None:
            self._begin_sweep(w)
            return
        start, stop = block
        cost = self.workload.chunk_cost(start, stop)
        finish = integrate_compute(t, cost, w.node.speed, w.node.load)
        if self.observing:
            self.obs.emit(ObsEvent(
                "compute", _SRC, t, w.index, start, stop, None, None,
                finish - t,
            ))
        w.metrics.t_comp += finish - t
        w.metrics.iterations += stop - start
        w.metrics.chunks += 1
        w.pending_items += stop - start
        w.unflushed.append((start, stop))
        self._chunks.append(
            ChunkRecord(
                worker=w.index,
                start=start,
                stop=stop,
                assigned_at=t,
                completed_at=finish,
            )
        )
        if self.collect_results:
            self._results.append((start, self.workload.execute(start, stop)))
        self.queue.schedule_at(
            finish, self._alive_action(w, self._compute_next),
            kind="compute",
        )

    def _flush(self, w: _TreeWorker, final: bool) -> None:
        t = self.queue.now
        fault = self._pop_message_fault(w, t)
        if fault is not None:
            # Chaos delay/loss: the flush leaves (or retransmits) late.
            _at, kind, extra = fault
            w.metrics.t_wait += extra
            if self.observing:
                self.obs.emit(ObsEvent(
                    "fault", _SRC, t, w.index, value=extra, detail=kind,
                ))
            self.queue.schedule_at(
                t + extra,
                self._alive_action(w, self._flush, final),
                kind=f"chaos-{kind}",
            )
            return
        nbytes = (
            self.cluster.request_bytes
            + w.pending_items * self.cluster.result_bytes_per_item
        )
        items = w.pending_items
        w.pending_items = 0
        w.inflight = list(w.unflushed)
        w.unflushed.clear()
        tx = w.node.transfer_time(nbytes)
        w.metrics.t_com += tx
        # The master's single inbound NIC serializes concurrent flushes;
        # the sender blocks (flow control) until its data has landed --
        # the paper's "contend for master access in order to send their
        # results ... they will have to idle" effect.
        port_arrival = t + tx
        recv_start = max(port_arrival, self._master_link_free)
        arrival = recv_start + nbytes / self.cluster.master_bandwidth
        self._master_link_free = arrival
        w.metrics.t_wait += arrival - port_arrival
        w.next_flush = self._next_epoch(arrival)

        epoch = w.epoch

        def arrive(ev, items=items, s=w, final=final):
            if s.dead or s.epoch != epoch:
                # Fail-stop: the flush died on the wire with its sender
                # (the death handler rolled the blocks back).
                return
            if self.observing:
                for blk_start, blk_stop in s.inflight:
                    self.obs.emit(ObsEvent(
                        "result", _SRC, self.queue.now, s.index,
                        blk_start, blk_stop,
                    ))
            s.inflight.clear()
            if items:
                self._last_result_arrival = max(
                    self._last_result_arrival, self.queue.now
                )
            if final:
                s.done = True
                s.metrics.finished_at = self.queue.now
                if self.observing:
                    self.obs.emit(ObsEvent(
                        "terminate", _SRC, self.queue.now, s.index,
                    ))

        self.queue.schedule_at(arrival, arrive, kind="flush-arrival")
        if not final:
            self.queue.schedule_at(
                arrival, self._alive_action(w, self._compute_next),
                kind="resume",
            )

    def _begin_sweep(self, w: _TreeWorker) -> None:
        w.sweep_pos = 0
        self._try_steal(w)

    def _try_steal(self, w: _TreeWorker) -> None:
        if w.sweep_pos >= len(w.partners):
            # Full sweep dry: nothing stealable anywhere; send the last
            # results at the next flush epoch (idling until then, as the
            # paper's interval-based collection implies).
            t = self.queue.now
            if w.pending_items and t < w.next_flush:
                w.metrics.t_wait += w.next_flush - t
                self.queue.schedule_at(
                    w.next_flush,
                    self._alive_action(w, self._flush, True),
                    kind="final-flush",
                )
            else:
                self._flush(w, final=True)
            return
        victim = self.workers[w.partners[w.sweep_pos]]
        w.sweep_pos += 1
        # Steal round trip: request over the thief's link, reply over
        # the victim's.  The thief idles for the duration.
        rtt = (
            w.node.transfer_time(self.cluster.request_bytes)
            + victim.node.transfer_time(self.cluster.reply_bytes)
        )
        w.metrics.t_wait += rtt
        thief_epoch = w.epoch

        def arrive(ev, thief=w, victim=victim):
            if thief.dead or thief.epoch != thief_epoch:
                return
            # A dead victim cannot refuse: its whole queue (including
            # work rolled back by the death handler) is reclaimable a
            # range at a time, bypassing the min_steal threshold.
            stolen = (
                victim.strip_range() if victim.dead
                else victim.steal_half(self.min_steal)
            )
            if stolen is None:
                self._try_steal(thief)
            else:
                self._steals += 1
                if self.observing:
                    self.obs.emit(ObsEvent(
                        "steal", _SRC, self.queue.now, thief.index,
                        start=stolen[0], stop=stolen[1],
                        detail=f"victim={victim.index}",
                    ))
                thief.ranges.append([stolen[0], stolen[1]])
                self._compute_next(thief)

        self.queue.schedule(rtt, arrive, kind="steal")

    # -- run ----------------------------------------------------------------------

    def run(self) -> SimResult:
        self._schedule_faults()
        for w in self.workers:
            self._start_worker(w)
        self.queue.run()
        t_p = self._last_result_arrival
        for w in self.workers:
            if w.dead:
                continue
            tracked = w.metrics.busy
            if tracked < t_p:
                w.metrics.t_wait += t_p - tracked
        computed = sum(c.size for c in self._chunks)
        if computed != self.workload.size:
            if self.chaos is not None:
                raise SimulationError(
                    f"TreeS could not recover from the fault plan: "
                    f"computed {computed} of {self.workload.size} "
                    f"(every surviving PE finished before the lost work "
                    f"became reclaimable)"
                )
            raise SimulationError(
                f"TreeS leak: computed {computed} of {self.workload.size}"
            )
        result = SimResult(
            scheme="TreeS" + ("-w" if self.weighted else ""),
            workers=[w.metrics for w in self.workers],
            t_p=t_p,
            chunks=self._chunks,
            events=self.queue.processed,
        )
        result.rederivations = self._steals  # repurposed: steal count
        if self.collect_results:
            self._results.sort(key=lambda pair: pair[0])
            result.results = (
                np.concatenate([r for _, r in self._results])
                if self._results
                else np.zeros(0)
            )
        return result


def simulate_tree(
    workload: Workload,
    cluster: ClusterSpec,
    weighted: bool = False,
    flush_interval: float = 2.0,
    grain: int = 1,
    min_steal: int = 2,
    collect_results: bool = False,
    chaos=None,
    collector=None,
) -> SimResult:
    """Simulate one TreeS run (see :class:`TreeSimulation`).

    ``chaos`` takes a :class:`repro.chaos.FaultPlan`; recovery is
    decentralized (partners reclaim a dead PE's queue), see
    ``docs/fault_model.md``.
    """
    return TreeSimulation(
        workload,
        cluster,
        weighted=weighted,
        flush_interval=flush_interval,
        grain=grain,
        min_steal=min_steal,
        collect_results=collect_results,
        chaos=chaos,
        collector=collector,
    ).run()
