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

Accounting mirrors the master engine: ``t_com`` is link occupancy,
``t_wait`` is counter queueing plus terminal idling, ``t_comp`` is
execution time, and the same ``SimResult`` comes back, so
:func:`repro.verify.audit_sim`, :mod:`repro.batch`, and the analysis
tools work unchanged.

Fault semantics (``chaos=FaultPlan``) track the master engine with two
decentral twists:

* a **stall** freezes the *counter*, not a master: claims queue behind
  the hold (the runtime analog holds the counter file's lock);
* ordinals lost to a death go to a scavenging list that live workers
  drain on their next claim -- in-band recovery, unlike the real
  runtime's end-of-run repair pass, because a simulated trace must
  cover every iteration to be auditable at all (the runtime's merged
  trace covers them via repair instead).  A dead *group* has its
  unclaimed lease remainder scavenged the same way.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Optional, Union

import numpy as np

from ..core.base import SchemeError
from ..core.kernel import ChunkCalculator, make_calculator
from ..obs import ObsEvent
from ..obs import resolve as _resolve_collector
from ..workloads import Workload
from ..simulation import fastpath
from ..simulation.cluster import ClusterSpec, NodeSpec
from ..simulation.engine import _overlay_load_spikes
from ..simulation.events import EventQueue, SimulationError
from ..simulation.loadgen import integrate_compute
from ..simulation.metrics import ChunkRecord, SimResult, WorkerMetrics

__all__ = ["DecentralSimulation", "simulate_decentral"]

#: Event-source tag for the unified observability stream.
_SRC = "sim.decentral"

#: Default cost of one fetch-and-add on the shared counter (seconds).
#: An order-of-magnitude figure for a remote atomic (RMA fetch-op /
#: flock'd read-modify-write): ~20 us, vs the paper-calibrated master
#: service times of 0.2-1 ms.
DEFAULT_ATOMIC_OP_COST = 2e-5


@dataclasses.dataclass
class _DWorkerState(object):
    index: int
    node: NodeSpec
    metrics: WorkerMetrics
    #: ordinal claimed but not yet completed (None when idle).
    pending_index: Optional[int] = None
    #: the in-flight chunk's record (None until compute begins).
    pending_record: Optional[ChunkRecord] = None
    done: bool = False
    dead: bool = False
    epoch: int = 0


class DecentralSimulation(object):
    """One simulated master-less run; construct and :meth:`run` once."""

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
        self.obs = _resolve_collector(collector)
        # Cached truthiness: the hot loops test this plain bool
        # (~5x cheaper than NullCollector.__bool__ per gate);
        # the collector never changes after construction.
        self.observing = bool(self.obs)
        #: fast-path policy: ``"auto"`` (take it when eligible),
        #: ``True`` (require it) or ``False`` (always run the DES).
        self.fast = fast
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
        self.chaos = chaos
        if chaos is not None:
            if chaos.max_worker >= cluster.size:
                raise SimulationError(
                    f"fault plan targets worker {chaos.max_worker} but "
                    f"cluster has {cluster.size} nodes"
                )
            cluster = _overlay_load_spikes(cluster, chaos)
        self.calc = calc
        self.workload = workload
        self.cluster = cluster
        self.atomic_op_cost = float(atomic_op_cost)
        self.local_op_cost = float(
            atomic_op_cost if local_op_cost is None else local_op_cost
        )
        self.group_size = group_size
        self.lease = int(lease)
        self.collect_results = collect_results
        self.queue = EventQueue()
        self.workers = [
            _DWorkerState(
                index=i, node=node, metrics=WorkerMetrics(name=node.name)
            )
            for i, node in enumerate(cluster.nodes)
        ]
        self._n = calc.n_chunks
        self._next = 0  # the global scheduled-chunk counter
        self._counter_free = 0.0
        self._global_ops = 0
        self._local_ops = 0
        #: per-group (next_local, lease_end) and local-counter busy-until.
        self._lease_state: dict[int, tuple[int, int]] = {}
        self._group_free: dict[int, float] = {}
        #: ordinals lost to deaths, scavenged FIFO by live claimers.
        self._lost: collections.deque[int] = collections.deque()
        self._chunks: list[ChunkRecord] = []
        self._results: list[tuple[int, np.ndarray]] = []
        self._parked: list[_DWorkerState] = []
        self._segment_free: dict[str, float] = {}
        self._death_schedule: dict[int, list[float]] = {}
        self._pending_failers: set[int] = set()
        self._future_restarts = 0
        self._message_faults: dict[int, list[tuple[float, str, float]]] = {}
        if group_size is not None:
            for g in range(-(-cluster.size // group_size)):
                self._lease_state[g] = (0, 0)
                self._group_free[g] = 0.0

    # -- helpers -----------------------------------------------------------

    def _group_of(self, state: _DWorkerState) -> int:
        assert self.group_size is not None
        return state.index // self.group_size

    def _acquire_segment(
        self, node: NodeSpec, t: float, duration: float
    ) -> float:
        if node.segment is None:
            return t
        free = self._segment_free.get(node.segment, 0.0)
        start = max(t, free)
        self._segment_free[node.segment] = start + duration
        return start

    def _alive_action(self, state: _DWorkerState, fn, *args):
        epoch = state.epoch

        def action(_event) -> None:
            if state.dead or state.epoch != epoch:
                return
            fn(state, *args)

        return action

    def _pop_message_fault(
        self, state: _DWorkerState, t: float
    ) -> Optional[tuple[float, str, float]]:
        faults = self._message_faults.get(state.index)
        if not faults or faults[0][0] > t:
            return None
        return faults.pop(0)

    def _global_access(self, state: _DWorkerState, at: float) -> float:
        """Wait for, then occupy, the global counter; returns end time."""
        start = max(at, self._counter_free)
        state.metrics.t_wait += start - at
        end = start + self.atomic_op_cost
        self._counter_free = end
        self._global_ops += 1
        if self.observing:
            self.obs.emit(ObsEvent(
                "fetch-add", _SRC, at, state.index,
                value=start - at, detail="global",
            ))
        return end

    def _allocate(
        self, state: _DWorkerState, arrival: float
    ) -> tuple[Optional[int], float]:
        """Serve one claim arriving at ``arrival``.

        Returns ``(ordinal, access_end)``; ordinal None means the loop
        is exhausted from this worker's point of view (the dry fetch
        still costs a counter access, as in the real runtime).
        """
        if self.group_size is None:
            if self._lost:
                return self._lost.popleft(), \
                    self._global_access(state, arrival)
            if self._next < self._n:
                index = self._next
                self._next += 1
                return index, self._global_access(state, arrival)
            return None, self._global_access(state, arrival)
        # Hierarchical: group-local counter first; refills, scavenges
        # and dry probes nest a global access inside the local hold.
        g = self._group_of(state)
        local_start = max(arrival, self._group_free[g])
        state.metrics.t_wait += local_start - arrival
        local_end = local_start + self.local_op_cost
        self._group_free[g] = local_end
        if self.observing:
            self.obs.emit(ObsEvent(
                "fetch-add", _SRC, arrival, state.index,
                value=local_start - arrival, detail="local",
            ))
        nxt, lease_end = self._lease_state[g]
        if nxt < min(lease_end, self._n):
            self._lease_state[g] = (nxt + 1, lease_end)
            self._local_ops += 1
            return nxt, local_end
        if self._lost:
            index = self._lost.popleft()
            end = self._global_access(state, local_end)
            self._group_free[g] = end
            return index, end
        if self._next < self._n:
            base = self._next
            self._next += self.lease
            self._lease_state[g] = (base + 1, base + self.lease)
            end = self._global_access(state, local_end)
            self._group_free[g] = end
            return base, end
        end = self._global_access(state, local_end)
        self._group_free[g] = end
        return None, end

    # -- protocol events ---------------------------------------------------

    def _claim(self, state: _DWorkerState) -> None:
        if state.dead:
            return
        t = self.queue.now
        fault = self._pop_message_fault(state, t)
        if fault is not None:
            _at, kind, extra = fault
            state.metrics.t_wait += extra
            if self.observing:
                self.obs.emit(ObsEvent(
                    "fault", _SRC, t, state.index, value=extra,
                    detail=kind,
                ))
            self.queue.schedule_at(
                t + extra,
                self._alive_action(state, self._claim),
                kind=f"chaos-{kind}",
            )
            return
        if self.observing:
            self.obs.emit(ObsEvent("request", _SRC, t, state.index))
        node = state.node
        tx = node.transfer_time(self.cluster.request_bytes)
        tx_start = self._acquire_segment(node, t, tx)
        state.metrics.t_wait += tx_start - t
        state.metrics.t_com += tx
        index, access_end = self._allocate(state, tx_start + tx)
        if index is None and self._work_may_reappear():
            # A failing peer holds an incomplete ordinal that may yet
            # land on the scavenging list: retry the fetch when a
            # death resolves the question (see _drain_parked).
            if self.observing:
                self.obs.emit(ObsEvent(
                    "park", _SRC, access_end, state.index,
                ))
            self._parked.append(state)
            return
        back = node.transfer_time(self.cluster.reply_bytes)
        back_start = self._acquire_segment(node, access_end, back)
        state.metrics.t_wait += back_start - access_end
        state.metrics.t_com += back
        resume = back_start + back
        if index is None:
            self.queue.schedule_at(
                resume,
                self._alive_action(state, self._worker_terminate),
                kind="terminate",
            )
            return
        if self.observing:
            a_start, a_stop = self.calc.interval(index)
            self.obs.emit(ObsEvent(
                "assign", _SRC, access_end, state.index,
                a_start, a_stop, self.calc.stage_of(index),
            ))
        state.pending_index = index
        self.queue.schedule_at(
            resume,
            self._alive_action(state, self._begin_compute, index),
            kind="compute",
        )

    def _begin_compute(self, state: _DWorkerState, index: int) -> None:
        t = self.queue.now
        start, stop = self.calc.interval(index)
        cost = self.workload.chunk_cost(start, stop)
        finish = integrate_compute(t, cost, state.node.speed,
                                   state.node.load)
        if self.observing:
            self.obs.emit(ObsEvent(
                "compute", _SRC, t, state.index, start, stop,
                self.calc.stage_of(index), None, finish - t,
            ))
        state.metrics.t_comp += finish - t
        state.metrics.chunks += 1
        state.metrics.iterations += stop - start
        record = ChunkRecord(
            worker=state.index,
            start=start,
            stop=stop,
            assigned_at=t,
            completed_at=finish,
            stage=self.calc.stage_of(index),
            acp=None,
        )
        self._chunks.append(record)
        state.pending_record = record
        if self.collect_results:
            self._results.append(
                (start, self.workload.execute(start, stop))
            )
        self.queue.schedule_at(
            finish,
            self._alive_action(state, self._finish_chunk),
            kind="chunk-durable",
        )

    def _finish_chunk(self, state: _DWorkerState) -> None:
        # The chunk is durable from here on (shard write in the real
        # runtime): a later death cannot lose it.
        if self.observing and state.pending_record is not None:
            record = state.pending_record
            self.obs.emit(ObsEvent(
                "result", _SRC, self.queue.now, state.index,
                record.start, record.stop,
            ))
        state.pending_index = None
        state.pending_record = None
        self._claim(state)

    def _worker_terminate(self, state: _DWorkerState) -> None:
        state.done = True
        state.metrics.finished_at = self.queue.now
        if self.observing:
            self.obs.emit(ObsEvent(
                "terminate", _SRC, self.queue.now, state.index,
            ))

    # -- failure injection -------------------------------------------------

    def _work_may_reappear(self) -> bool:
        return any(
            s.index in self._pending_failers and s.pending_index is not None
            for s in self.workers
        )

    def _reclaim_lease(self, g: int) -> None:
        nxt, lease_end = self._lease_state[g]
        for index in range(nxt, min(lease_end, self._n)):
            self._lost.append(index)
        self._lease_state[g] = (0, 0)

    def _worker_die(self, state: _DWorkerState) -> None:
        t = self.queue.now
        schedule = self._death_schedule.get(state.index)
        if schedule:
            schedule.pop(0)
        if not schedule:
            self._pending_failers.discard(state.index)
        if state.dead or state.done:
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
        if state.pending_index is not None:
            record = state.pending_record
            if record is not None:
                # Died mid-chunk: the record never became durable.
                state.metrics.t_comp -= record.completed_at - t
                state.metrics.chunks -= 1
                state.metrics.iterations -= record.stop - record.start
                self._chunks.remove(record)
                if self.collect_results:
                    for i in range(len(self._results) - 1, -1, -1):
                        if self._results[i][0] == record.start:
                            del self._results[i]
                            break
            self._lost.append(state.pending_index)
            state.pending_index = None
            state.pending_record = None
        if self.group_size is not None:
            g = self._group_of(state)
            members = [
                s for s in self.workers if self._group_of(s) == g
            ]
            if all(s.dead for s in members):
                # Coordinator-group death: the unclaimed remainder of
                # the group's lease would otherwise leak.
                self._reclaim_lease(g)
        alive = [s for s in self.workers if not s.dead]
        if not alive and self._future_restarts == 0 \
                and (self._lost or self._next < self._n):
            raise SimulationError(
                "every worker died with chunk ordinals outstanding; "
                "the loop cannot complete"
            )
        self._drain_parked()

    def _worker_restart(self, state: _DWorkerState) -> None:
        self._future_restarts -= 1
        if not state.dead:
            return
        state.dead = False
        state.done = False
        state.pending_index = None
        state.pending_record = None
        if self.observing:
            self.obs.emit(ObsEvent(
                "restart", _SRC, self.queue.now, state.index,
            ))
        self._claim(state)

    def _counter_stall(self, duration: float) -> None:
        """The global counter is held for ``duration`` from now."""
        if self.observing:
            self.obs.emit(ObsEvent(
                "fault", _SRC, self.queue.now, value=float(duration),
                detail="stall",
            ))
        self._counter_free = max(
            self._counter_free, self.queue.now + float(duration)
        )

    def _drain_parked(self) -> None:
        parked, self._parked = self._parked, []
        for state in parked:
            if state.dead:
                continue
            # Retry the fetch: either scavengeable work appeared, or
            # the exhaustion is now final and the claim terminates.
            self.queue.schedule(
                0.0,
                self._alive_action(state, self._claim),
                kind="unpark",
            )

    def _schedule_faults(self) -> None:
        deaths: dict[int, list[float]] = {}
        for s in self.workers:
            if s.node.fails_at is not None:
                deaths.setdefault(s.index, []).append(
                    float(s.node.fails_at)
                )
        if self.chaos is not None:
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
                        lambda _e, d=float(ev.duration):
                            self._counter_stall(d),
                        kind="chaos-stall",
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
                self.queue.schedule_at(
                    at,
                    lambda _e, s=self.workers[idx]: self._worker_die(s),
                    kind="death",
                )

    # -- run ---------------------------------------------------------------

    def run(self) -> SimResult:
        # Analytic fast path: fault-free deterministic runs skip the
        # DES entirely (bit-identical; see repro.simulation.fastpath).
        if self.fast is not False:
            reason = fastpath.decentral_fast_reason(self)
            if reason is None and fastpath.fast_enabled():
                return fastpath.run_fast_decentral(self)
            if self.fast is True:
                raise SimulationError(
                    f"fast=True but the run is not fast-path eligible: "
                    f"{reason or 'disabled via ' + fastpath.ENV_FAST}"
                )
        self._schedule_faults()
        for state in self.workers:
            self._claim(state)
        self.queue.run()
        t_p = max((c.completed_at for c in self._chunks), default=0.0)
        for state in self.workers:
            if state.dead:
                continue
            tracked = state.metrics.busy
            if tracked < t_p:
                state.metrics.t_wait += t_p - tracked
        assigned = sum(c.size for c in self._chunks)
        if assigned != self.workload.size:
            raise SimulationError(
                f"scheduling leak: assigned {assigned} of "
                f"{self.workload.size} iterations"
            )
        result = SimResult(
            scheme=self.calc.scheme,
            workers=[s.metrics for s in self.workers],
            t_p=t_p,
            chunks=self._chunks,
            rederivations=0,
            events=self.queue.processed,
        )
        if self.collect_results:
            self._results.sort(key=lambda pair: pair[0])
            result.results = (
                np.concatenate([r for _, r in self._results])
                if self._results
                else np.zeros(0)
            )
        return result

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
