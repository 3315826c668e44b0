"""Analytic fast path: fault-free runs without the generic DES.

The discrete-event engines pay for generality: every protocol step is
a tuple pushed on a heap and popped through a liveness-guarded
dispatch (:mod:`~repro.simulation.events`), and every emission site
tests a collector.  None of that
machinery changes the *numbers*: on a fault-free run with no observer
the protocol is a deterministic recurrence over a handful of floats
(link-free / master-free / counter-free times), and the chunk sequence
is the pure ladder :mod:`repro.core.kernel` materializes in one shot.

This module evaluates that recurrence directly, collapsing the DES's
three-to-four events per chunk into **one processed event per chunk**:

* Master engine: the only inter-worker interactions happen when a
  request *arrives* at the master (link + service serialization,
  scheduler call).  The compute and send legs of a worker's chain are
  pure functions of its own arrival, so the whole leg is evaluated
  inline and only the *next arrival* is kept pending -- one heap
  entry per live chain.
* Decentral engine: the shared state is the counter; a claim happens
  when a chunk becomes *durable*, so the loop keeps one pending
  durable event per live chain and evaluates claim + compute inline.

Event order is still **exactly** the DES's ``(time, seq)`` order,
because a heap entry *is* its event's pedigree.  The DES breaks time
ties by ``seq``, and seq values are assigned in firing order of the
*scheduling* events -- so a pending arrival's entry leads with
``(arrival time, send fire time, compute fire time, predecessor
rank)``.  Tuple order on these fields reproduces the DES tie-break
chain: equal arrival times compare send seqs, which were assigned in
compute firing order, which were assigned in the order the *previous*
arrivals were processed -- a rank this loop knows, because it
processed them.  Ranks are unique, so the payload behind them (the
worker and its request) is never compared, and each processed event
costs one ``heapreplace`` (or one ``heappop`` when its chain ends).
Initial requests use rank slots below every later rank, in worker
index order, exactly like the DES's startup seq assignment.  Chunk
records are emitted in processing order and stably sorted by
compute-fire time afterwards, which equals the DES's compute-event
order for the same reason.

Further per-chunk costs are shaved without touching the numbers:

* the scheduler is asked through the stepper the DES calls
  (:meth:`repro.core.Scheduler.stepper`), except when that stepper is
  a formula closure (every built-in simple scheme, caller-supplied
  instances included): then the bound ``_nominal`` is called inline
  with this loop's own cursor, step and request counts and the
  drained state is handed back to the scheduler afterwards.  Calling
  the closure instead measured 10.6% slower on the ledger's
  ``sweep_fast``.  Every other scheduler keeps its own state current
  through its stepper (the ACP-driven family's ``step``, or a
  replacement ``stepper``: still bit-identical, less speedup);
* the per-chunk compute integral is inlined for ``ConstantLoad``
  (``finish = t + cost / rate``), the overwhelmingly common case;
* additions of exact zeros (switched-segment waits) are skipped --
  IEEE-identical because ``x + 0.0 == x`` for the non-negative
  accumulators involved;
* :class:`~repro.simulation.metrics.ChunkRecord` construction is
  deferred via :class:`~repro.simulation.metrics.LazyChunkList` --
  sweeps that never read the per-chunk trace never pay for it.

Every floating-point expression is kept in the engine's exact shape
and evaluation order, so the fast path is **bit-identical** to the DES
-- enforced for every registry scheme by
``tests/simulation/test_fastpath.py``.  It is a run mode of the DES
chassis, not a fork beside it: :meth:`DesCluster.run
<repro.simulation.des.DesCluster.run>` is the one gate (it asks
:func:`master_fast_reason` / :func:`decentral_fast_reason` through the
engine's ``_fast_reason`` hook; ``docs/performance.md`` documents the
rules), ``_prepare`` has screened availability and registered ACPs
before either loop here starts, and both return through
``DesCluster._finish`` -- terminal idling, the leak check and the
result assembly are the DES's own.  What only the DES reads (its
``EventQueue``, a ``DesWorker`` per PE, the master's ``MasterState``)
is never built for a run that takes a loop here: each reads the
nodes as columns, books into plain lists and writes the run's
``metrics`` from them at the end.

Pass ``fast=False`` to force the DES; pass ``fast=True`` to *require*
the fast path (raises when ineligible).
The tree engine has no fast path: work stealing entangles every
decision with timing, so there is nothing to precompute.
"""

from __future__ import annotations

from heapq import heapify, heappop, heapreplace
from operator import itemgetter
from typing import Optional

from .loadgen import constant_rates, integrate_compute
from .metrics import SimResult, WorkerMetrics

__all__ = [
    "master_fast_reason",
    "decentral_fast_reason",
    "run_fast_master",
    "run_fast_decentral",
]

def _cluster_fast_reason(sim) -> Optional[str]:
    """Shared eligibility core; None = eligible, else the blocker."""
    if sim.chaos is not None:
        return "a fault plan is attached"
    if sim.observing:
        return "an observability collector is attached"
    for node in sim.cluster.nodes:
        if node.fails_at is not None:
            return f"node {node.name} has fails_at set"
        if node.segment is not None:
            return f"node {node.name} is on a shared segment"
    return None


def master_fast_reason(sim) -> Optional[str]:
    """Why this master-engine run cannot take the fast path (None = can).

    The fast path replays the fault-free switched-network protocol
    exactly; anything that perturbs it -- chaos plans, ``fails_at``
    deaths, shared-segment contention (transfer ordering becomes
    entangled with send times) or an attached collector (emission
    points sit inside the collapsed handlers) -- falls back to the DES.

    So does a ``feedback_dependent`` (adaptive) scheduler, and not by
    nature: its policy reads chunk spans, iteration costs and static
    virtual powers, nothing the collapsed recurrence lacks.  This is
    the one place the flag is still read, and it stays because the
    frozen benchmark ledger's ``check_des`` requires every
    ``sweep_des`` job -- the adaptive cells included -- to be refused;
    it is lifted once ROADMAP item 1 replaces that check (ROADMAP
    item 5).
    """
    if sim.scheduler.feedback_dependent:
        return (
            "the scheduler is feedback-dependent (adaptive "
            "meta-scheduling observes the run it is steering)"
        )
    return _cluster_fast_reason(sim)


def decentral_fast_reason(sim) -> Optional[str]:
    """Why this decentral run cannot take the fast path (None = can)."""
    return _cluster_fast_reason(sim)


def _node_columns(cluster) -> tuple:
    """The per-node constants a collapsed loop reads, as read-only
    columns indexed by worker: names, link latencies and bandwidths,
    speeds, load traces and the :func:`constant_rates` (None where the
    trace must be walked)."""
    names, latency, bandwidth, speed, load = zip(*[
        (node.name, node.latency, node.bandwidth, node.speed, node.load)
        for node in cluster.nodes
    ])
    return names, latency, bandwidth, speed, load, constant_rates(
        speed, load
    )


def _open_books(n: int) -> tuple[list, ...]:
    """The accumulator columns of a collapsed loop as plain lists
    (``t_com``, ``t_wait``, ``t_comp``, ``chunks``, ``iterations``,
    ``finished_at``), starting where a fresh :class:`WorkerMetrics`
    does: same values, same per-worker addition order as the dataclass
    fields, and list stores are much cheaper than attribute updates on
    the hot path.  The loop writes them back, once, as the run's books
    (``sim.metrics``, which ``_finish`` closes):
    ``WorkerMetrics(name, *columns)`` per node, the fields in
    declaration order."""
    return [0.0] * n, [0.0] * n, [0.0] * n, [0] * n, [0] * n, [0.0] * n


# -- master-engine fast path -----------------------------------------------


def run_fast_master(sim) -> SimResult:
    """Fault-free master--slave run, bit-identical to the DES.

    ``sim`` is a :class:`~repro.simulation.engine.MasterSlaveSimulation`
    that passed :func:`master_fast_reason`; its books (``sim.metrics``)
    come out exactly as the DES would leave them, and the scheduler's
    drained state as ``next_chunk`` would.

    One pending *arrival* per live chain, popped from a heap keyed on
    its pedigree in exact DES order (see module docstring); the
    compute and send legs of each chain are evaluated inline at
    arrival time -- their values only depend on the arrival, and the
    ``q_at`` realizations of stochastic load traces are query-order
    independent.
    """
    scheduler = sim.scheduler
    workload = sim.workload
    cluster = sim.cluster
    total = scheduler.total
    pref = sim._pref

    distributed = scheduler.distributed
    participants = sim._participants

    # A formula-driven scheme (its stepper says so) is its ``_nominal``
    # and nothing else: this loop owns the cursor, a worker's request
    # index is its chunk count so far and the global step is the row
    # count.  A constant formula (SS, CSS, BC) is two integer ops
    # inlined in the arrival branch, no call at all.  Any other
    # scheduler steps itself through the stepper the DES's master asks.
    step = scheduler.stepper(sim._requester)
    pure = getattr(step, "formula", False)
    const_k = scheduler.constant if pure else None
    nominal = scheduler._nominal
    cursor = scheduler._cursor
    stage = scheduler._stage
    acp_model = sim.acp_model
    collect = sim.collect_results

    # ConstantLoad: the compute integral collapses to cost / rate.
    names, latency, bandwidth, speed_of, load_of, const_rate = (
        _node_columns(cluster)
    )
    n_nodes = len(names)
    reply_bytes = cluster.reply_bytes
    # ``NodeSpec.transfer_time``, inline.
    reply_tx = [
        lat + reply_bytes / bw for lat, bw in zip(latency, bandwidth)
    ]
    vpower = sim._powers if distributed else None
    books = _open_books(n_nodes)
    acc_com, acc_wait, acc_comp, acc_chunks, acc_iters, finished = books

    request_bytes = cluster.request_bytes
    master_bw = cluster.master_bandwidth
    master_service = cluster.master_service
    res_bpi = cluster.result_bytes_per_item

    link_free = 0.0
    master_free = 0.0
    last_result = 0.0
    rows: list[tuple] = []
    results = sim._results

    # Pending arrivals, one heap entry per live chain: the pedigree
    # (arrival time, send fire time, compute fire time, rank), then the
    # worker and its request payload (acp, carries-results flag,
    # nbytes), which ``rank`` -- unique -- keeps from ever being
    # compared.  Initial requests are direct calls in the DES too,
    # worker index order: seqs 0..P-1 below every later seq, encoded as
    # negative ranks with pedigree (-1, -1) < any real fire time.
    heap = []
    for idx, i in enumerate(participants):
        tx = latency[i] + request_bytes / bandwidth[i]
        acc_com[i] += tx
        acp = acp_model.acp(
            vpower[i], load_of[i].q_at(0.0)
        ) if distributed else None
        heap.append(
            (tx, -1.0, -1.0, idx - n_nodes, i, acp, False, request_bytes)
        )
    heapify(heap)

    rank = 0
    while heap:
        t, _, _, _, i, acp, carry, nb = heap[0]
        # -- arrival: master link + service serialization ----------------
        recv_start = t if t > link_free else link_free
        arrival = recv_start + nb / master_bw
        link_free = arrival
        if carry and arrival > last_result:
            last_result = arrival
        service_start = arrival if arrival > master_free else master_free
        service_end = service_start + master_service
        master_free = service_end
        acc_wait[i] += service_end - t
        rtx = reply_tx[i]
        acc_com[i] += rtx
        tc = service_end + rtx  # compute event fire time
        # -- assignment --------------------------------------------------
        if not pure:
            sim._arrival = arrival
            a = step(i, acp)
            if a is None:
                start = -1
            else:
                start, stop, stage = a
        elif cursor >= total:
            start = -1
        else:
            rem = total - cursor
            if const_k is not None:
                size = const_k
            else:
                size, stage = nominal(rem, len(rows), i, acc_chunks[i])
                size = int(size)
                if size < 1:
                    size = 1
            start = cursor
            stop = cursor = start + (size if size < rem else rem)
        if start >= 0:
            # -- compute leg, inline ------------------------------------
            cost = pref[stop] - pref[start]
            rate = const_rate[i]
            if rate is not None:
                finish = tc + cost / rate if cost > 1e-12 else tc
            else:
                finish = integrate_compute(
                    tc, cost, speed_of[i], load_of[i]
                )
            acc_comp[i] += finish - tc
            acc_chunks[i] += 1
            acc_iters[i] += stop - start
            rows.append((i, start, stop, tc, finish, stage, acp))
            if collect:
                results.append((start, workload.execute(start, stop)))
            # -- send leg, inline: next arrival becomes pending ---------
            nb = request_bytes + (stop - start) * res_bpi
            tx = latency[i] + nb / bandwidth[i]
            acc_com[i] += tx
            if distributed:
                acp = acp_model.acp(vpower[i], load_of[i].q_at(finish))
            heapreplace(
                heap, (finish + tx, finish, tc, rank, i, acp, True, nb)
            )
        else:
            # Dry request: terminate fires at the reply's delivery.
            finished[i] = tc
            heappop(heap)
        rank += 1

    sim.metrics = list(map(WorkerMetrics, names, *books))
    if pure:
        # Hand the drained state back, as ``next_chunk`` leaves it.
        scheduler._cursor = cursor
        scheduler._step = len(rows)
        scheduler._requests = {
            i: n for i, n in enumerate(acc_chunks) if n
        }
        scheduler._stage = stage
    # DES chunk order is compute-event order: compute seqs follow
    # arrival processing order (= append order here), so a stable sort
    # on fire time reproduces it exactly, ties included.
    rows.sort(key=itemgetter(3))
    # Fault-free event census: per worker, chunks+1 arrivals (the last
    # is the dry request), one compute and one send event per chunk
    # (the first send is a direct call), one terminate.
    n, p = len(rows), len(participants)
    result = sim._finish(rows, last_result, 3 * n + 2 * p)
    # The trace the DES would have emitted.  ``p`` counts participants:
    # a PE screened out by ``A_min`` never asks.
    result.trace_length = sim.TRACE_PER_CHUNK * n + (
        sim.TRACE_PER_PE + (1 if distributed else 0)
    ) * p
    return result


# -- decentral fast path ---------------------------------------------------


def run_fast_decentral(sim) -> SimResult:
    """Fault-free shared-counter run, bit-identical to the DES.

    ``sim`` is a :class:`~repro.decentral.sim_engine.DecentralSimulation`
    that passed :func:`decentral_fast_reason`.  The whole chunk ladder
    is the calculator's own table, read as the plain lists it is (no
    array round trip, unlike :func:`repro.core.kernel.evaluate_ladder`);
    the loop keeps one pending *chunk-durable* event per live chain in
    a heap (claims happen at durability, so that is where counter
    ordering is decided) and evaluates claim + compute inline,
    replaying the engine's exact float expressions including the
    hierarchical lease logic.  Durable-event ties break on ``(compute
    fire time, claim rank)`` -- the DES's seq order, by the same
    pedigree argument as the master loop.
    """
    calc = sim.calc
    workload = sim.workload
    cluster = sim.cluster
    pref = sim._pref

    # The calculator's own table, already plain lists: chunk ordinal
    # ``m`` is ``[bounds[m], bounds[m + 1])`` at stage ``stages[m]``.
    bounds, stages = calc._tabulate()
    starts, stops = bounds, bounds[1:]
    n = len(stages)

    names, latency, bandwidth, speed_of, load_of, const_rate = (
        _node_columns(cluster)
    )
    n_workers = len(names)
    request_bytes = cluster.request_bytes
    reply_bytes = cluster.reply_bytes
    # ``NodeSpec.transfer_time``, inline.
    req_tx = [
        lat + request_bytes / bw for lat, bw in zip(latency, bandwidth)
    ]
    rep_tx = [
        lat + reply_bytes / bw for lat, bw in zip(latency, bandwidth)
    ]
    collect = sim.collect_results

    atomic_op_cost = sim.atomic_op_cost
    local_op_cost = sim.local_op_cost
    group_size = sim.group_size
    lease = sim.lease

    counter_free = 0.0
    next_ord = 0
    global_ops = 0
    local_ops = 0
    lease_state = dict(sim._lease_state)
    group_free = dict(sim._group_free)

    rows: list[tuple] = []
    results = sim._results
    books = _open_books(n_workers)
    acc_com, acc_wait, acc_comp, acc_chunks, acc_iters, finished = books

    def allocate(i: int, at: float) -> tuple[Optional[int], float]:
        # Hierarchical (group-counter) claim path; the global-counter
        # path is inlined in the loop below.
        nonlocal next_ord, local_ops, counter_free, global_ops
        g = i // group_size
        gfree = group_free[g]
        local_start = at if at > gfree else gfree
        wait = local_start - at
        if wait:
            acc_wait[i] += wait
        local_end = local_start + local_op_cost
        group_free[g] = local_end
        nxt, lease_end = lease_state[g]
        if nxt < (lease_end if lease_end < n else n):
            lease_state[g] = (nxt + 1, lease_end)
            local_ops += 1
            return nxt, local_end
        if next_ord < n:
            base = next_ord
            next_ord += lease
            lease_state[g] = (base + 1, base + lease)
            index = base
        else:
            index = None
        gstart = local_end if local_end > counter_free else counter_free
        wait = gstart - local_end
        if wait:
            acc_wait[i] += wait
        end = gstart + atomic_op_cost
        counter_free = end
        global_ops += 1
        group_free[g] = end
        return index, end

    hierarchical = group_size is not None
    t_p = 0.0

    # Pending durable events, one heap entry per live chain: the
    # pedigree (fire time, compute fire time, claim rank), then the
    # worker, which the unique rank keeps from being compared; claim +
    # compute legs are evaluated inline when the event is processed.
    # Initial claims are direct calls in the DES, worker index order at
    # t = 0 (``0.0 + tx == tx`` exactly): encoded as due-at-zero events
    # with pedigree (-1, i - W), which order them exactly so before any
    # real durable can fire.  Built in that order, the list is a heap.
    heap = [(0.0, -1.0, i - n_workers, i) for i in range(n_workers)]

    rank = 0
    while heap:
        t, _, _, i = heap[0]
        # -- claim -------------------------------------------------------
        rqx = req_tx[i]
        acc_com[i] += rqx
        at = t + rqx
        if hierarchical:
            index, access_end = allocate(i, at)
        else:
            if next_ord < n:
                index = next_ord
                next_ord += 1
            else:
                index = None
            cstart = at if at > counter_free else counter_free
            wait = cstart - at
            if wait:
                acc_wait[i] += wait
            access_end = cstart + atomic_op_cost
            counter_free = access_end
        acc_com[i] += rep_tx[i]
        resume = access_end + rep_tx[i]
        if index is None:
            # Dry counter: the chain terminates at the reply.
            finished[i] = resume
            heappop(heap)
        else:
            # -- compute leg, inline ------------------------------------
            start = starts[index]
            stop = stops[index]
            cost = pref[stop] - pref[start]
            rate = const_rate[i]
            if rate is not None:
                finish = resume + cost / rate if cost > 1e-12 else resume
            else:
                finish = integrate_compute(
                    resume, cost, speed_of[i], load_of[i]
                )
            acc_comp[i] += finish - resume
            acc_chunks[i] += 1
            acc_iters[i] += stop - start
            rows.append((i, start, stop, resume, finish, stages[index]))
            if finish > t_p:
                t_p = finish
            if collect:
                results.append((start, workload.execute(start, stop)))
            heapreplace(heap, (finish, resume, rank, i))
        rank += 1

    if not hierarchical:
        # Every claim -- one per startup worker plus one per durable
        # chunk -- performs exactly one global counter access.
        global_ops = len(rows) + n_workers

    sim.metrics = list(map(WorkerMetrics, names, *books))
    sim._next = next_ord
    sim._counter_free = counter_free
    sim._global_ops = global_ops
    sim._local_ops = local_ops
    sim._lease_state = lease_state
    sim._group_free = group_free
    # DES chunk order is compute-event order; stable sort on fire time
    # (rows were appended in claim order = compute seq order).
    rows.sort(key=itemgetter(3))
    # Census: compute + durable per chunk, terminate per worker (claims
    # are direct calls, not events).
    result = sim._finish(rows, t_p, 2 * n + n_workers)
    # The trace the DES would have emitted (``n`` chunks, every worker
    # a participant): a hierarchical claim's global accesses are
    # fetch-adds on top of its local one.
    result.trace_length = (
        sim.TRACE_PER_CHUNK * n + sim.TRACE_PER_PE * n_workers
        + (global_ops if hierarchical else 0)
    )
    return result
