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
import math
from typing import Optional

from ..core.tree import TreePartition, partner_order
from ..obs import ObsEvent
from ..workloads import Workload
from .cluster import ClusterSpec
from .des import DesCluster, DesWorker
from .events import SimulationError

__all__ = ["simulate_tree", "TreeSimulation"]


@dataclasses.dataclass
class _TreeWorker(DesWorker):
    #: mutable [start, stop) ranges still to compute, in queue order
    ranges: list[list[int]] = dataclasses.field(default_factory=list)
    partners: list[int] = dataclasses.field(default_factory=list)
    pending_items: int = 0  # computed results not yet flushed
    next_flush: float = 0.0
    sweep_pos: int = 0

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
        # Peel ranges from the tail.  TreeS transfers a single interval
        # when possible; across multiple ranges we return the last
        # contiguous piece and leave the rest for the next steal.
        last = self.ranges[-1]
        if last[1] - last[0] <= take:
            self.ranges.pop()
            return (last[0], last[1])
        last[1] -= take
        return (last[1], last[1] + take)

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


class TreeSimulation(DesCluster[_TreeWorker]):
    """One simulated TreeS run; construct and call :meth:`run` once."""

    SRC = "sim.tree"
    STALLED = "_master_link_free"
    STRANDED = (
        "every TreeS PE died or finished with iterations outstanding; "
        "the loop cannot complete"
    )

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
        if flush_interval <= 0:
            raise SimulationError("flush_interval must be > 0")
        if grain < 1:
            raise SimulationError(f"grain must be >= 1, got {grain}")
        if min_steal < 2:
            raise SimulationError(f"min_steal must be >= 2, got {min_steal}")
        super().__init__(
            _TreeWorker, workload, cluster, collect_results, chaos,
            collector,
        )
        self.flush_interval = float(flush_interval)
        self.grain = int(grain)
        self.min_steal = int(min_steal)
        partition = (
            TreePartition.weighted(
                workload.size, self.cluster.virtual_powers()
            )
            if weighted
            else TreePartition.even(workload.size, cluster.size)
        )
        for w, (lo, hi) in zip(self.workers, partition.blocks()):
            if hi > lo:
                w.ranges.append([lo, hi])
            w.partners = partner_order(w.index, cluster.size)
        self.weighted = weighted
        self._master_link_free = 0.0
        self._steals = 0

    # -- lifecycle hooks ---------------------------------------------------------

    def _start(self, w: _TreeWorker) -> None:
        # Allocation message from the master (at start-up, and again as
        # the rejoin handshake of a restarted PE, which then resumes
        # whatever is left of its queue or sweeps its partners).
        delay = w.reply_tx
        w.metrics.t_com += delay
        w.next_flush = self._next_epoch(self.queue.now + delay)
        self.queue.push(self.queue.now + delay, self.next_work, w)

    def _lose(self, w: _TreeWorker, spans: list[tuple[int, int]]) -> None:
        # The lost intervals rejoin the dead PE's queue, where the
        # partner sweep (strip_range) recovers them -- TreeS has no
        # central requeue, so recovery is decentralized too.
        w.pending_items = 0
        w.ranges.extend([start, stop] for start, stop in spans)
        w.ranges.sort(key=lambda r: r[0])
        merged: list[list[int]] = []
        for r in w.ranges:
            if merged and merged[-1][1] == r[0]:
                merged[-1][1] = r[1]
            else:
                merged.append(r)
        w.ranges = merged

    def _stranded(self) -> bool:
        return all(s.dead or s.done for s in self.workers) and any(
            s.remaining() for s in self.workers
        )

    def _label(self) -> tuple[str, int]:
        # ``rederivations`` is repurposed: the steal count.
        return "TreeS" + ("-w" if self.weighted else ""), self._steals

    def _leak(self, assigned: int) -> str:
        if self._death_schedule:
            return (
                f"TreeS could not recover from the fault plan: "
                f"computed {assigned} of {self.workload.size} "
                f"(every surviving PE finished before the lost work "
                f"became reclaimable)"
            )
        return f"TreeS leak: computed {assigned} of {self.workload.size}"

    # -- phases ------------------------------------------------------------------

    def _next_epoch(self, t: float) -> float:
        """First flush epoch strictly after ``t`` (fixed global grid).

        The paper's TreeS sends results "at predefined time intervals";
        a *global* epoch grid means all slaves flush in the same window
        and contend for the master -- the residual contention the paper
        observed ("cannot be totally eliminated").
        """
        return (math.floor(t / self.flush_interval) + 1) \
            * self.flush_interval

    def _next_block(self, w: _TreeWorker) -> Optional[tuple[int, int]]:
        """The next block of ``w``'s own queue (None when it is dry)."""
        return w.pop_block(self.grain)

    def next_work(self, w: _TreeWorker) -> None:
        if w.pending_items and self.queue.now >= w.next_flush:
            self._flush(w, final=False)
            return
        block = self._next_block(w)
        if block is None:
            w.sweep_pos = 0
            self._try_steal(w)
            return
        start, stop = block
        w.pending_items += stop - start
        self._compute(w, start, stop, None, None, self.next_work)

    def _flush(self, w: _TreeWorker, final: bool) -> None:
        # Chaos delay/loss: the flush leaves (or retransmits) late.
        if self._message_faults and self._message_held(
            w, self._flush, final
        ):
            return
        t = self.queue.now
        nbytes = (
            self.cluster.request_bytes
            + w.pending_items * self.cluster.result_bytes_per_item
        )
        items = w.pending_items
        w.pending_items = 0
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
        # Under fail-stop the flush dies on the wire with its sender
        # (the death handler rolls the blocks back).
        self.queue.push(arrival, self._flush_arrival, w, items, final)
        if not final:
            self.queue.push(arrival, self.next_work, w)

    def _flush_arrival(
        self, w: _TreeWorker, items: int, final: bool
    ) -> None:
        # The sender blocked for the whole transfer, so everything it
        # has computed and not yet delivered was in this message.
        if self.observing:
            for row in w.undelivered:
                self._emit((
                    "result", self.SRC, self.queue.now, w.index,
                    row[1], row[2], None, None, None, "", None,
                ))
        w.undelivered.clear()
        if items:
            self._last_result_arrival = max(
                self._last_result_arrival, self.queue.now
            )
        if final:
            self._worker_terminate(w)

    def _pick_victim(self, w: _TreeWorker) -> Optional[_TreeWorker]:
        """The next partner in ``w``'s fixed sweep order (None once the
        sweep has been through all of them)."""
        if w.sweep_pos >= len(w.partners):
            return None
        victim = self.workers[w.partners[w.sweep_pos]]
        w.sweep_pos += 1
        return victim

    def _share(self, victim: _TreeWorker) -> Optional[tuple[int, int]]:
        """What a live ``victim`` gives up: half of what it has left."""
        return victim.steal_half(self.min_steal)

    def _try_steal(self, w: _TreeWorker) -> None:
        victim = self._pick_victim(w)
        if victim is None:
            # Nothing stealable anywhere; send the last results at the
            # next flush epoch (idling until then, as the paper's
            # interval-based collection implies).
            t = self.queue.now
            if w.pending_items and t < w.next_flush:
                w.metrics.t_wait += w.next_flush - t
                self.queue.push(w.next_flush, self._flush, w, True)
            else:
                self._flush(w, final=True)
            return
        # Steal round trip: request over the thief's link, reply over
        # the victim's.  The thief idles for the duration.
        rtt = w.request_tx + victim.reply_tx
        w.metrics.t_wait += rtt
        self.queue.push(
            self.queue.now + rtt, self._steal_arrival, w, victim
        )

    def _steal_arrival(
        self, thief: _TreeWorker, victim: _TreeWorker
    ) -> None:
        # A dead victim cannot refuse: its whole queue (including work
        # rolled back by the death handler) is reclaimable a range at a
        # time, bypassing the min_steal threshold.
        stolen = (
            victim.strip_range() if victim.dead else self._share(victim)
        )
        if stolen is None:
            self._try_steal(thief)
            return
        self._steals += 1
        if self.observing:
            self._emit(ObsEvent(
                "steal", self.SRC, self.queue.now, thief.index,
                start=stolen[0], stop=stolen[1],
                detail=f"victim={victim.index}",
            ))
        thief.ranges.append([stolen[0], stolen[1]])
        self.next_work(thief)


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
