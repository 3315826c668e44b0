"""Discrete-event contention model of the shared-counter substrate.

The master--slave engine serializes every dispatch behind a FIFO
master server (``master_service`` per request) plus the master's NIC.
Here the serialized resource is the *counter*: one atomic fetch-and-add
of configurable ``atomic_op_cost`` per claim -- typically two to three
orders of magnitude below a master service time, which is the entire
argument of the Distributed Chunk Calculation Approach.  The engine
makes "master service time vs counter contention" a reproducible
sweep (see ``repro-experiments decentral-sweep``).

Per worker cycle:

1. **claim send** -- occupies the worker's link for
   ``latency + request_bytes/bandwidth`` (shared segments contend as
   in the master engine);
2. **counter access** -- waits for the counter to be free, then holds
   it for ``atomic_op_cost``; in hierarchical mode the group-local
   counter (``local_op_cost``) is tried first and only lease refills
   touch the global one;
3. **return leg** -- ``latency + reply_bytes/bandwidth`` back (the
   fetched ordinal);
4. **compute** -- the worker derives ``interval(ordinal)`` locally
   (pure :mod:`repro.core.kernel` arithmetic, charged at zero --
   it is nanoseconds of integer math) and executes under its load
   trace; results are durable at completion (the runtime's shard
   write), so ``T_p`` is the last chunk *completion*, with no
   result-collection phase on the critical path.

Clock, fail-stop lifecycle, compute step and accounting are the shared
:class:`~repro.simulation.des.DesCluster` chassis, so ``t_com`` is link
occupancy, ``t_wait`` is counter queueing plus terminal idling,
``t_comp`` is execution time, and the same ``SimResult`` comes back:
:func:`repro.verify.audit_sim`, :mod:`repro.batch`, and the analysis
tools work unchanged.  What this substrate decides:

* **work source** -- the shared (or leased group-local) counter;
* **result delivery** -- durable at completion, nothing on the wire;
* **lost-work sink** -- ordinals lost to a death go to a scavenging
  list that live workers drain on their next claim -- in-band recovery,
  unlike the real runtime's end-of-run repair pass, because a simulated
  trace must cover every iteration to be auditable at all (the
  runtime's merged trace covers them via repair instead).  A dead
  *group* has its unclaimed lease remainder scavenged the same way;
* **stalled resource** -- a ``chaos`` stall freezes the *counter*, not
  a master: claims queue behind the hold (the runtime analog holds the
  counter file's lock).
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Optional, Union

from ..core.kernel import ChunkCalculator, make_calculator
from ..workloads import Workload
from ..simulation import fastpath
from ..simulation.cluster import ClusterSpec
from ..simulation.des import DesCluster, DesWorker
from ..simulation.events import SimulationError
from ..simulation.metrics import SimResult

__all__ = ["DecentralSimulation", "simulate_decentral"]

#: Default cost of one fetch-and-add on the shared counter (seconds).
#: An order-of-magnitude figure for a remote atomic (RMA fetch-op /
#: flock'd read-modify-write): ~20 us, vs the paper-calibrated master
#: service times of 0.2-1 ms.
DEFAULT_ATOMIC_OP_COST = 2e-5


@dataclasses.dataclass
class _DWorkerState(DesWorker):
    #: ordinal claimed but not yet durable (None when idle).
    pending_index: Optional[int] = None


class DecentralSimulation(DesCluster[_DWorkerState]):
    """One simulated master-less run; construct and :meth:`run` once."""

    SRC = "sim.decentral"
    WORKER = _DWorkerState
    STALLED = "_counter_free"
    STRANDED = (
        "every worker died with chunk ordinals outstanding; the loop "
        "cannot complete"
    )
    #: request, fetch-add, assign, compute and result per chunk; the dry
    #: request, its fetch-add and terminate per worker (plus a global
    #: fetch-add per global access when claims are hierarchical).
    TRACE_PER_CHUNK = 5
    TRACE_PER_PE = 3

    def __init__(
        self,
        calc: ChunkCalculator,
        workload: Workload,
        cluster: ClusterSpec,
        atomic_op_cost: float = DEFAULT_ATOMIC_OP_COST,
        local_op_cost: Optional[float] = None,
        group_size: Optional[int] = None,
        lease: int = 8,
        collect_results: bool = False,
        chaos=None,
        collector=None,
        fast: object = "auto",
    ) -> None:
        if calc.workers != cluster.size:
            raise SimulationError(
                f"calculator built for {calc.workers} workers but "
                f"cluster has {cluster.size}"
            )
        if calc.total != workload.size:
            raise SimulationError(
                f"calculator covers {calc.total} iterations but "
                f"workload has {workload.size}"
            )
        if atomic_op_cost < 0:
            raise SimulationError(
                f"atomic_op_cost must be >= 0, got {atomic_op_cost}"
            )
        if group_size is not None and not 1 <= group_size <= cluster.size:
            raise SimulationError(
                f"group_size must be in [1, {cluster.size}], got "
                f"{group_size}"
            )
        if lease < 1:
            raise SimulationError(f"lease must be >= 1, got {lease}")
        super().__init__(
            workload, cluster, collect_results, chaos, collector, fast,
        )
        self.calc = calc
        self.atomic_op_cost = float(atomic_op_cost)
        self.local_op_cost = float(
            atomic_op_cost if local_op_cost is None else local_op_cost
        )
        self.group_size = group_size
        self.lease = int(lease)
        self._n = calc.n_chunks
        self._next = 0  # the global scheduled-chunk counter
        self._counter_free = 0.0
        self._global_ops = 0
        self._local_ops = 0
        #: per-group (next_local, lease_end) and local-counter busy-until.
        self._lease_state: dict[int, tuple[int, int]] = {}
        self._group_free: dict[int, float] = {}
        if group_size is not None:
            for g in range(-(-cluster.size // group_size)):
                self._lease_state[g] = (0, 0)
                self._group_free[g] = 0.0

    def _build_des(self) -> None:
        super()._build_des()
        #: ordinals lost to deaths, scavenged FIFO by live claimers.
        self._lost: collections.deque[int] = collections.deque()
        #: claimers waiting for a death to settle whether work reappears.
        self._parked: list[_DWorkerState] = []

    # -- helpers -----------------------------------------------------------

    def _group_of(self, state: _DWorkerState) -> int:
        assert self.group_size is not None
        return state.index // self.group_size

    def _global_access(self, state: _DWorkerState, at: float) -> float:
        """Wait for, then occupy, the global counter; returns end time."""
        start = max(at, self._counter_free)
        state.metrics.t_wait += start - at
        end = start + self.atomic_op_cost
        self._counter_free = end
        self._global_ops += 1
        if self.observing:
            self._emit((
                "fetch-add", self.SRC, at, state.index,
                None, None, None, None, start - at, "global", None,
            ))
        return end

    def _allocate(
        self, state: _DWorkerState, arrival: float
    ) -> tuple[Optional[int], float]:
        """Serve one hierarchical claim arriving at ``arrival``.

        Returns ``(ordinal, access_end)``; ordinal None means the loop
        is exhausted from this worker's point of view (the dry fetch
        still costs a counter access, as in the real runtime).  The
        group-local counter is tried first; refills, scavenges and dry
        probes nest a global access inside the local hold.  (The flat
        counter's claim is inline in :meth:`next_work`.)
        """
        index: Optional[int] = None
        g = self._group_of(state)
        local_start = max(arrival, self._group_free[g])
        state.metrics.t_wait += local_start - arrival
        local_end = local_start + self.local_op_cost
        self._group_free[g] = local_end
        if self.observing:
            self._emit((
                "fetch-add", self.SRC, arrival, state.index,
                None, None, None, None, local_start - arrival, "local",
                None,
            ))
        nxt, lease_end = self._lease_state[g]
        if nxt < min(lease_end, self._n):
            self._lease_state[g] = (nxt + 1, lease_end)
            self._local_ops += 1
            return nxt, local_end
        if self._lost:
            index = self._lost.popleft()
        elif self._next < self._n:
            index = self._next
            self._next += self.lease
            self._lease_state[g] = (index + 1, index + self.lease)
        end = self._global_access(state, local_end)
        self._group_free[g] = end
        return index, end

    # -- protocol events ---------------------------------------------------

    def next_work(self, state: _DWorkerState) -> None:
        """One claim: link out, counter access, fetched ordinal back."""
        if self._message_faults and self._message_held(
            state, self.next_work
        ):
            return
        t = self.queue.now
        if self.observing:
            self._emit((
                "request", self.SRC, t, state.index,
                None, None, None, None, None, "", None,
            ))
        metrics = state.metrics
        tx = state.request_tx
        if self._shared_medium:
            tx_start = self._acquire_segment(state.node, t, tx)
            metrics.t_wait += tx_start - t
        else:
            # A switched link never waits: no zero is added.
            tx_start = t
        metrics.t_com += tx
        at = tx_start + tx
        index: Optional[int]
        if self.group_size is None:
            # The flat counter's claim, ``_global_access`` inline:
            # scavenged ordinals first, then the shared counter.
            if self._lost:
                index = self._lost.popleft()
            else:
                index = self._next
                if index < self._n:
                    self._next = index + 1
                else:
                    index = None
            free = self._counter_free
            start = at if at > free else free
            wait = start - at
            if wait:
                metrics.t_wait += wait
            access_end = start + self.atomic_op_cost
            self._counter_free = access_end
            self._global_ops += 1
            if self.observing:
                self._emit((
                    "fetch-add", self.SRC, at, state.index,
                    None, None, None, None, wait, "global", None,
                ))
        else:
            index, access_end = self._allocate(state, at)
        if index is None and self._work_may_reappear():
            # A failing peer holds an incomplete ordinal that may yet
            # land on the scavenging list: retry the fetch when a
            # death resolves the question (see _drain_parked).
            if self.observing:
                self._emit((
                    "park", self.SRC, access_end, state.index,
                    None, None, None, None, None, "", None,
                ))
            self._parked.append(state)
            return
        back = state.reply_tx
        if self._shared_medium:
            back_start = self._acquire_segment(state.node, access_end, back)
            metrics.t_wait += back_start - access_end
        else:
            back_start = access_end
        metrics.t_com += back
        resume = back_start + back
        if index is None:
            self.queue.push(resume, self._worker_terminate, state)
            return
        # The worker derives its interval from the ordinal: sized once,
        # here, for the event and for the compute step alike.
        start, stop = self.calc.interval(index)
        stage = self.calc.stage_of(index)
        if self.observing:
            self._emit((
                "assign", self.SRC, access_end, state.index,
                start, stop, stage, None, None, "", None,
            ))
        state.pending_index = index
        self.queue.push(
            resume, self._compute, state,
            start, stop, stage, None, self._finish_chunk,
        )

    def _finish_chunk(self, state: _DWorkerState) -> None:
        # The chunk is durable from here on (shard write in the real
        # runtime): a later death cannot lose it.
        now = self.queue.now
        if self.observing:
            row = state.undelivered[0]
            self._emit((
                "result", self.SRC, now, state.index,
                row[1], row[2], None, None, None, "", None,
            ))
        state.undelivered.clear()
        state.pending_index = None
        self._last_result_arrival = now
        self.next_work(state)

    # -- failure injection -------------------------------------------------

    def _work_may_reappear(self) -> bool:
        return any(
            s.index in self._pending_failers and s.pending_index is not None
            for s in self.workers
        )

    def _lose(
        self, state: _DWorkerState, spans: list[tuple[int, int]]
    ) -> None:
        # Lost work is tracked by ordinal (claimed, possibly mid-chunk),
        # not by the rolled-back spans.
        if state.pending_index is not None:
            self._lost.append(state.pending_index)
            state.pending_index = None
        if self.group_size is not None:
            g = self._group_of(state)
            if all(s.dead for s in self.workers if self._group_of(s) == g):
                # Coordinator-group death: the unclaimed remainder of
                # the group's lease would otherwise leak.
                nxt, lease_end = self._lease_state[g]
                self._lost.extend(range(nxt, min(lease_end, self._n)))
                self._lease_state[g] = (0, 0)

    def _stranded(self) -> bool:
        return all(s.dead for s in self.workers) and (
            bool(self._lost) or self._next < self._n
        )

    def _drain_parked(self) -> None:
        parked, self._parked = self._parked, []
        for state in parked:
            if state.dead:
                continue
            # Retry the fetch: either scavengeable work appeared, or
            # the exhaustion is now final and the claim terminates.
            self.queue.push(self.queue.now, self.next_work, state)

    # -- run ---------------------------------------------------------------

    def _label(self) -> tuple[str, int]:
        return self.calc.scheme, 0

    def _fast_reason(self) -> Optional[str]:
        return fastpath.decentral_fast_reason(self)

    def _run_fast(self) -> SimResult:
        return fastpath.run_fast_decentral(self)

    @property
    def counter_ops(self) -> tuple[int, int]:
        """(global, group-local) counter accesses performed so far."""
        return self._global_ops, self._local_ops


def simulate_decentral(
    scheme: Union[str, ChunkCalculator],
    workload: Workload,
    cluster: ClusterSpec,
    atomic_op_cost: float = DEFAULT_ATOMIC_OP_COST,
    local_op_cost: Optional[float] = None,
    group_size: Optional[int] = None,
    lease: int = 8,
    collect_results: bool = False,
    chaos=None,
    collector=None,
    fast: object = "auto",
    **scheme_kwargs,
) -> SimResult:
    """Simulate ``scheme`` on ``cluster`` with no master in the path.

    ``scheme`` is a decentralizable registry name (``"TSS"``,
    ``"CSS(32)"``, ...; see
    :data:`repro.decentral.DECENTRAL_SCHEMES`) or a ready
    :class:`~repro.core.kernel.ChunkCalculator`.  The cluster's
    ``master_service``/``master_bandwidth`` fields are ignored --
    there is no master; ``atomic_op_cost`` (and, hierarchically,
    ``group_size``/``lease``/``local_op_cost``) replace them.
    """
    if isinstance(scheme, ChunkCalculator):
        calc = scheme
    else:
        calc = make_calculator(
            scheme, workload.size, cluster.size, **scheme_kwargs
        )
    sim = DecentralSimulation(
        calc,
        workload,
        cluster,
        atomic_op_cost=atomic_op_cost,
        local_op_cost=local_op_cost,
        group_size=group_size,
        lease=lease,
        collect_results=collect_results,
        chaos=chaos,
        collector=collector,
        fast=fast,
    )
    return sim.run()
