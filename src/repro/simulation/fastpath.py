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
  inline and only the *next arrival* is kept pending -- one pending
  event per worker, found by an O(P) scan instead of a heap.
* Decentral engine: the shared state is the counter; a claim happens
  when a chunk becomes *durable*, so the loop keeps one pending
  durable event per worker and evaluates claim + compute inline.

Event order is still **exactly** the DES's ``(time, seq)`` order.  The
DES breaks time ties by ``seq``, and seq values are assigned in firing
order of the *scheduling* events -- so each pending arrival carries a
pedigree key ``(arrival time, send fire time, compute fire time,
predecessor rank)``.  Comparing pedigrees lexicographically reproduces
the DES tie-break chain: equal arrival times compare send seqs, which
were assigned in compute firing order, which were assigned in the
order the *previous* arrivals were processed -- a rank this loop
knows, because it processed them.  Initial requests use rank slots
below every later rank, in worker index order, exactly like the DES's
startup seq assignment.  Chunk records are emitted in processing
order and stably sorted by compute-fire time afterwards, which equals
the DES's compute-event order for the same reason.

Further per-chunk costs are shaved without touching the numbers:

* the scheduler is asked through the stepper the DES calls
  (:meth:`repro.core.Scheduler.stepper`), except when that stepper is
  a formula closure (every built-in simple scheme, caller-supplied
  instances included): then the bound ``_nominal`` is called inline
  with this loop's own cursor, step and request counts and the
  drained state is handed back to the scheduler afterwards.  Calling
  the closure instead measured 10.6% slower on the ledger's
  ``sweep_fast``.  Every other scheduler keeps its own state current
  through its stepper (the ACP-driven family's, or a ``WorkerView``
  per request for a user scheme that replaces a driver hook: still
  bit-identical, less speedup);
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
result assembly are the DES's own.

Set ``REPRO_FAST=0`` (or pass ``fast=False``) to force the DES; pass
``fast=True`` to *require* the fast path (raises when ineligible).
The tree engine has no fast path: work stealing entangles every
decision with timing, so there is nothing to precompute.
"""

from __future__ import annotations

import math
import os
from operator import itemgetter
from typing import Optional

from ..core.kernel import evaluate_ladder
from .loadgen import integrate_compute
from .metrics import SimResult, WorkerMetrics

__all__ = [
    "ENV_FAST",
    "fast_enabled",
    "master_fast_reason",
    "decentral_fast_reason",
    "run_fast_master",
    "run_fast_decentral",
]

#: Environment kill-switch: set to ``0``/``off``/``no``/``false`` to
#: force every simulation down the generic DES path (debugging aid).
ENV_FAST = "REPRO_FAST"

_INF = math.inf


def fast_enabled() -> bool:
    """False when the ``REPRO_FAST`` kill-switch is set."""
    return os.environ.get(ENV_FAST, "").strip().lower() not in (
        "0", "off", "no", "false"
    )


def _cluster_fast_reason(cluster, chaos, obs) -> Optional[str]:
    """Shared eligibility core; None = eligible, else the blocker."""
    if chaos is not None:
        return "a fault plan is attached"
    if obs:
        return "an observability collector is attached"
    for node in cluster.nodes:
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
    return _cluster_fast_reason(sim.cluster, sim.chaos, sim.obs)


def decentral_fast_reason(sim) -> Optional[str]:
    """Why this decentral run cannot take the fast path (None = can)."""
    return _cluster_fast_reason(sim.cluster, sim.chaos, sim.obs)


def _open_books(metrics: list[WorkerMetrics]) -> tuple[list, ...]:
    """The five accumulator columns of a collapsed loop as plain lists
    (``t_com``, ``t_wait``, ``t_comp``, ``chunks``, ``iterations``):
    same values, same per-worker addition order as the dataclass
    fields, and list stores are much cheaper than attribute updates on
    the hot path."""
    return (
        [m.t_com for m in metrics],
        [m.t_wait for m in metrics],
        [m.t_comp for m in metrics],
        [m.chunks for m in metrics],
        [m.iterations for m in metrics],
    )


def _close_books(
    metrics: list[WorkerMetrics], books: tuple[list, ...]
) -> None:
    """Write the columns back, once, at the end of the loop."""
    acc_com, acc_wait, acc_comp, acc_chunks, acc_iters = books
    for i, m in enumerate(metrics):
        m.t_com = acc_com[i]
        m.t_wait = acc_wait[i]
        m.t_comp = acc_comp[i]
        m.chunks = acc_chunks[i]
        m.iterations = acc_iters[i]


# -- master-engine fast path -----------------------------------------------


def run_fast_master(sim) -> SimResult:
    """Fault-free master--slave run, bit-identical to the DES.

    ``sim`` is a :class:`~repro.simulation.engine.MasterSlaveSimulation`
    that passed :func:`master_fast_reason`; its worker metrics are
    mutated in place exactly as the DES would.

    One pending *arrival* per worker, processed in exact DES order via
    the pedigree key (see module docstring); the compute and send legs
    of each chain are evaluated inline at arrival time -- their values
    only depend on the arrival, and the ``q_at`` realizations of
    stochastic load traces are query-order independent.
    """
    scheduler = sim.scheduler
    workload = sim.workload
    cluster = sim.cluster
    total = workload.size
    pref = sim._pref

    distributed = scheduler.distributed
    participants = sim._participants

    # A formula-driven scheme (its stepper says so) is its ``_nominal``
    # and nothing else: this loop owns the cursor, a worker's request
    # index is its chunk count so far and the global step is the row
    # count.  A constant formula (SS, CSS, BC) is two integer ops
    # inlined in the arrival branch, no call at all.  Any other
    # scheduler steps itself through the stepper the DES calls.
    step = sim._step
    pure = getattr(step, "formula", False)
    const_k = scheduler.constant if pure else None
    nominal = scheduler._nominal
    cursor = scheduler._cursor
    stage = scheduler._stage
    acp_model = sim.acp_model
    collect = sim.collect_results

    n_nodes = len(cluster.nodes)
    metrics = [s.metrics for s in sim.workers]
    node_of = [s.node for s in sim.workers]
    latency = [node.latency for node in node_of]
    bandwidth = [node.bandwidth for node in node_of]
    reply_tx = [
        node.transfer_time(cluster.reply_bytes) for node in node_of
    ]
    vpower = [float(node.virtual_power or 1.0) for node in node_of]
    load_of = [node.load for node in node_of]
    speed_of = [node.speed for node in node_of]
    # ConstantLoad: the compute integral collapses to cost / rate.
    const_rate = [s.rate for s in sim.workers]
    books = _open_books(metrics)
    acc_com, acc_wait, acc_comp, acc_chunks, acc_iters = books

    request_bytes = cluster.request_bytes
    master_bw = cluster.master_bandwidth
    master_service = cluster.master_service
    res_bpi = cluster.result_bytes_per_item

    link_free = 0.0
    master_free = 0.0
    last_result = 0.0
    rows: list[tuple] = []
    results = sim._results

    # Pending next arrival per worker: time (inf = chain done), the
    # pedigree (send fire time, compute fire time, predecessor rank),
    # and the request payload (acp, carries-results flag, nbytes).
    nxt_t = [_INF] * n_nodes
    nxt_s = [0.0] * n_nodes
    nxt_c = [0.0] * n_nodes
    nxt_rank = [0] * n_nodes
    nxt_acp: list = [None] * n_nodes
    nxt_carry = [False] * n_nodes
    nxt_nb = [0.0] * n_nodes

    # Initial requests: direct calls in the DES too, worker index
    # order -- seqs 0..P-1 below every later seq, encoded as negative
    # ranks with pedigree (-1, -1) < any real fire time.
    active = 0
    for idx, s in enumerate(participants):
        i = s.index
        tx = latency[i] + request_bytes / bandwidth[i]
        acc_com[i] += tx
        nxt_t[i] = tx
        nxt_s[i] = -1.0
        nxt_c[i] = -1.0
        nxt_rank[i] = idx - n_nodes
        if distributed:
            nxt_acp[i] = acp_model.acp(vpower[i], load_of[i].q_at(0.0))
        nxt_nb[i] = request_bytes
        active += 1

    rank = 0
    while active:
        t = min(nxt_t)
        i = nxt_t.index(t)
        if nxt_t.count(t) > 1:
            # Coincident arrivals: full DES tie-break on the pedigree.
            best = (nxt_s[i], nxt_c[i], nxt_rank[i])
            for j in range(i + 1, n_nodes):
                if nxt_t[j] == t:
                    key = (nxt_s[j], nxt_c[j], nxt_rank[j])
                    if key < best:
                        best = key
                        i = j
        # -- arrival: master link + service serialization ----------------
        nb = nxt_nb[i]
        recv_start = t if t > link_free else link_free
        arrival = recv_start + nb / master_bw
        link_free = arrival
        if nxt_carry[i] and arrival > last_result:
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
            a = step(i, nxt_acp[i])
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
            rows.append((i, start, stop, tc, finish, stage, nxt_acp[i]))
            if collect:
                results.append((start, workload.execute(start, stop)))
            # -- send leg, inline: next arrival becomes pending ---------
            pig = (stop - start) * res_bpi
            nb = request_bytes + pig
            tx = latency[i] + nb / bandwidth[i]
            acc_com[i] += tx
            if distributed:
                nxt_acp[i] = acp_model.acp(
                    vpower[i], load_of[i].q_at(finish)
                )
            nxt_t[i] = finish + tx
            nxt_s[i] = finish
            nxt_c[i] = tc
            nxt_rank[i] = rank
            nxt_carry[i] = pig > 0
            nxt_nb[i] = nb
        else:
            # Dry request: terminate fires at the reply's delivery.
            metrics[i].finished_at = tc
            nxt_t[i] = _INF
            active -= 1
        rank += 1

    _close_books(metrics, books)
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
    return sim._finish(
        rows, last_result, 3 * len(rows) + 2 * len(participants)
    )


# -- decentral fast path ---------------------------------------------------


def run_fast_decentral(sim) -> SimResult:
    """Fault-free shared-counter run, bit-identical to the DES.

    ``sim`` is a :class:`~repro.decentral.sim_engine.DecentralSimulation`
    that passed :func:`decentral_fast_reason`.  The whole chunk ladder
    comes from one :func:`repro.core.kernel.evaluate_ladder` call; the
    loop keeps one pending *chunk-durable* event per worker (claims
    happen at durability, so that is where counter ordering is
    decided) and evaluates claim + compute inline, replaying the
    engine's exact float expressions including the hierarchical lease
    logic.  Durable-event ties break on ``(compute fire time, claim
    rank)`` -- the DES's seq order, by the same pedigree argument as
    the master loop.
    """
    calc = sim.calc
    workload = sim.workload
    cluster = sim.cluster
    pref = sim._pref

    ladder = evaluate_ladder(calc)
    starts = ladder.starts.tolist()
    stops = ladder.stops.tolist()
    stages = ladder.stages.tolist()
    n = ladder.n_chunks

    n_workers = len(sim.workers)
    metrics = [s.metrics for s in sim.workers]
    node_of = [s.node for s in sim.workers]
    req_tx = [
        node.transfer_time(cluster.request_bytes) for node in node_of
    ]
    rep_tx = [
        node.transfer_time(cluster.reply_bytes) for node in node_of
    ]
    load_of = [node.load for node in node_of]
    speed_of = [node.speed for node in node_of]
    const_rate = [s.rate for s in sim.workers]
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
    books = _open_books(metrics)
    acc_com, acc_wait, acc_comp, acc_chunks, acc_iters = books

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

    # Pending durable event per worker: fire time (inf = done) plus
    # the pedigree (compute fire time, claim rank); claim + compute
    # legs are evaluated inline when the event is processed.  Initial
    # claims are direct calls in the DES, worker index order at t = 0
    # (``0.0 + tx == tx`` exactly): encoded as due-at-zero events with
    # pedigree (-1, i - W), which the tie-break resolves to exactly
    # that order before any real durable can fire.
    nxt_t = [0.0] * n_workers
    nxt_c = [-1.0] * n_workers
    nxt_rank = [i - n_workers for i in range(n_workers)]
    active = n_workers

    rank = 0
    while active:
        t = min(nxt_t)
        i = nxt_t.index(t)
        if nxt_t.count(t) > 1:
            best = (nxt_c[i], nxt_rank[i])
            for j in range(i + 1, n_workers):
                if nxt_t[j] == t:
                    key = (nxt_c[j], nxt_rank[j])
                    if key < best:
                        best = key
                        i = j
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
            metrics[i].finished_at = resume
            nxt_t[i] = _INF
            active -= 1
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
            nxt_t[i] = finish
            nxt_c[i] = resume
            nxt_rank[i] = rank
        rank += 1

    if not hierarchical:
        # Every claim -- one per startup worker plus one per durable
        # chunk -- performs exactly one global counter access.
        global_ops = len(rows) + n_workers

    _close_books(metrics, books)
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
    return sim._finish(rows, t_p, 2 * len(rows) + n_workers)
