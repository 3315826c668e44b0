"""Critical-path explanation over a unified event stream.

The paper's argument is about *where the time goes*: a chunk ladder is
good when no worker is left waiting on the master or idling after its
last chunk while a straggler finishes.  This module turns any ObsEvent
stream (sim, runtime, decentral, or a service trace) into that
explanation, offline and purely -- no clock reads, no substrate
imports, deterministic output for a deterministic stream.

Four products:

* :func:`critical_path` -- per-worker attribution of the full span to
  ``compute`` / ``master-wait`` / ``network`` / ``fault-recovery`` /
  ``idle`` (the categories tile each worker's span exactly, by
  construction), the blocking chain from the makespan backwards, and
  the paper's load-imbalance metrics (finish-time spread, busy-time
  sigma).  It is the one per-worker fold over a trace.
* :func:`trace_report` -- the ``trace-report`` table, rendered from
  that fold's workers: chunk/iteration counts, busy seconds,
  utilization, dispatch latency, faults and restarts per worker, then
  the event census and the canonical-stream digest.
* :func:`fastpath_drift` -- diff observed chunk completion times
  against an analytic fast-path prediction
  (:func:`repro.simulation.fastpath` chunk records, passed in by the
  caller so ``repro.obs`` stays import-free of the substrates).
* ``CritPathReport.to_dict`` / ``summary`` -- JSON-able and
  human-readable forms for the ``critpath-report`` artifact.

Timing model (matches the master DES): a ``compute`` event at ``t``
with duration ``value`` means busy ``[t, t + value)``; the gap that
*follows* an event is attributed by what the worker was waiting on
next -- after a ``request`` or ``assign`` the wire (``network``),
after a ``result`` landed the master's FIFO (``master-wait``), after
a ``fault`` recovery (``fault-recovery``) until the ``restart``,
after ``terminate`` nothing (``idle``).  The lead-in before a
worker's first event is ``network`` (its first request is in flight).
Point kinds that do not change what the worker waits on (heartbeat,
acp-update, adapt, job-*) are transparent.
"""

from __future__ import annotations

import dataclasses
import operator
from typing import Iterable, Optional, Sequence

from .events import ObsEvent
from .export import stream_digest
from .metrics import Histogram, imbalance, population_sigma

__all__ = [
    "CATEGORIES",
    "WorkerBreakdown",
    "ChainLink",
    "CritPathReport",
    "DriftReport",
    "critical_path",
    "fastpath_drift",
    "trace_report",
]

#: The attribution categories; each worker's span tiles into these.
CATEGORIES = (
    "compute", "master-wait", "network", "fault-recovery", "idle",
)

#: Kinds that never change what a worker is waiting on.
_TRANSPARENT = frozenset({
    "heartbeat", "acp-update", "adapt",
    "job-submit", "job-assign", "job-result", "job-reject",
})

#: What the worker waits on *after* each boundary kind fires.
_AFTER = {
    "request": "network",       # request (+ piggyback) in flight
    "result": "master-wait",    # landed; waiting on master FIFO
    "assign": "network",        # reply in flight back to the worker
    "park": "master-wait",      # parked at the master
    "fetch-add": "network",     # counter round-trip tail
    "steal": "network",         # stolen interval in transit
    "repair": "idle",           # post-run repair; worker span over
    "fault": "fault-recovery",
    "restart": "network",       # rejoin request goes out immediately
    "terminate": "idle",
}


@dataclasses.dataclass
class WorkerBreakdown(object):
    """Where one worker's span ``[first_t, span_end]`` went.

    ``last_t``, ``faults``, ``restarts`` and ``dispatch`` are what
    :func:`trace_report` tabulates; ``to_dict`` leaves them out.
    """

    worker: int
    first_t: float
    span_end: float
    finish_t: float           # end of its last productive activity
    chunks: int
    iterations: int
    categories: dict[str, float] = dataclasses.field(
        default_factory=dict
    )
    last_t: float = 0.0       # latest event; a compute counts to its end
    faults: int = 0
    restarts: int = 0
    #: request -> assign gaps, paired in stream order
    dispatch: list[float] = dataclasses.field(default_factory=list)

    @property
    def span(self) -> float:
        return self.span_end - self.first_t

    @property
    def busy(self) -> float:
        return self.categories.get("compute", 0.0)

    def to_dict(self) -> dict:
        return {
            "worker": self.worker,
            "first_t": self.first_t,
            "span_end": self.span_end,
            "finish_t": self.finish_t,
            "chunks": self.chunks,
            "iterations": self.iterations,
            "categories": dict(self.categories),
        }


@dataclasses.dataclass
class ChainLink(object):
    """One hop of the blocking chain, walking back from the makespan."""

    kind: str
    worker: int
    t: float
    start: Optional[int] = None
    stop: Optional[int] = None

    def to_dict(self) -> dict:
        doc: dict = {
            "kind": self.kind, "worker": self.worker, "t": self.t,
        }
        if self.start is not None:
            doc["start"] = self.start
            doc["stop"] = self.stop
        return doc


@dataclasses.dataclass
class CritPathReport(object):
    """The full explanation for one event stream."""

    makespan: float
    workers: list[WorkerBreakdown]
    chain: list[ChainLink]
    finish_max: float
    finish_mean: float
    finish_spread: float      # max - min finish time
    imbalance: float          # (max - min) / mean finish time
    busy_sigma: float         # population sigma of busy (compute) time

    def to_dict(self) -> dict:
        return {
            "makespan": self.makespan,
            "finish_max": self.finish_max,
            "finish_mean": self.finish_mean,
            "finish_spread": self.finish_spread,
            "imbalance": self.imbalance,
            "busy_sigma": self.busy_sigma,
            "workers": [w.to_dict() for w in self.workers],
            "chain": [c.to_dict() for c in self.chain],
        }

    def summary(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"makespan {self.makespan:.6f}s  "
            f"finish spread {self.finish_spread:.6f}s  "
            f"imbalance {self.imbalance:.4f}  "
            f"busy sigma {self.busy_sigma:.6f}s",
        ]
        for w in sorted(self.workers, key=lambda w: w.worker):
            span = w.span or 1.0
            parts = "  ".join(
                f"{cat} {w.categories.get(cat, 0.0):.4f}s"
                f" ({100.0 * w.categories.get(cat, 0.0) / span:.1f}%)"
                for cat in CATEGORIES
                if w.categories.get(cat, 0.0) > 0.0
            )
            lines.append(
                f"  worker {w.worker}: {w.chunks} chunks, "
                f"{w.iterations} iters, finish {w.finish_t:.6f}s | "
                f"{parts}"
            )
        if self.chain:
            hops = " <- ".join(
                f"{c.kind}@{c.t:.4f}(w{c.worker})"
                for c in self.chain[:8]
            )
            more = len(self.chain) - 8
            tail = f" <- ... ({more} more)" if more > 0 else ""
            lines.append(f"  blocking chain: {hops}{tail}")
        return "\n".join(lines)


def _span_categories(
    events: Sequence[ObsEvent], makespan: float, dispatch: list[float],
) -> WorkerBreakdown:
    """Attribute one worker's span; events are time-sorted."""
    worker = events[0].worker
    first_t = events[0].t
    categories = {cat: 0.0 for cat in CATEGORIES}
    cursor = first_t
    pending = "network"
    finish_t = first_t
    chunks = 0
    iterations = 0
    faults = 0
    restarts = 0

    def charge(upto: float) -> None:
        nonlocal cursor
        if upto > cursor:
            categories[pending] += upto - cursor
            cursor = upto

    for ev in events:
        if ev.kind in _TRANSPARENT:
            continue
        charge(ev.t)
        if ev.kind == "compute":
            duration = ev.value or 0.0
            categories["compute"] += duration
            cursor = ev.t + duration
            finish_t = max(finish_t, cursor)
            chunks += 1
            iterations += (ev.stop or 0) - (ev.start or 0)
            pending = "network"   # next request goes out at finish
        else:
            kind = ev.kind
            if kind == "result":
                finish_t = max(finish_t, ev.t)
            elif kind == "fault":
                faults += 1
            elif kind == "restart":
                restarts += 1
            pending = _AFTER.get(kind, pending)
    span_end = max(cursor, makespan)
    charge(span_end)
    return WorkerBreakdown(
        worker=worker, first_t=first_t, span_end=span_end,
        finish_t=finish_t, chunks=chunks, iterations=iterations,
        categories={
            k: v for k, v in categories.items() if v > 0.0
        } or {"idle": 0.0},
        # finish_t covers every compute end; results and the first
        # event are never later than the last event
        last_t=max(events[-1].t, finish_t),
        faults=faults, restarts=restarts,
        dispatch=dispatch,
    )


def _blocking_chain(
    per_worker: dict[int, list[ObsEvent]],
    last_result: Optional[ObsEvent],
) -> list[ChainLink]:
    """Walk back from the makespan result through the cycle that
    produced it, then through the same worker's preceding cycles.

    The chain answers "what was the run waiting on at the end": the
    final ``result``, the ``compute`` that produced it, the ``assign``
    that dispatched it, the ``request`` that asked for it -- and so on
    back towards t = 0.  Purely positional (matched on interval and
    order), so it works on any substrate's stream.
    """
    if last_result is None:
        return []
    events = per_worker.get(last_result.worker, [])
    idx = len(events) - 1
    while idx >= 0 and events[idx] is not last_result:
        idx -= 1
    chain = [ChainLink(
        kind="result", worker=last_result.worker, t=last_result.t,
        start=last_result.start, stop=last_result.stop,
    )]
    # Walk each cycle back: the compute that produced the interval,
    # the assign that dispatched it, the request that asked for it;
    # that request went out when the *previous* compute ended (or at
    # t=0 for the first cycle), so the next hop re-anchors on the
    # nearest preceding compute, whatever its interval.
    want = "compute"
    match: Optional[tuple] = (last_result.start, last_result.stop)
    idx -= 1
    while idx >= 0 and len(chain) < 64:
        ev = events[idx]
        idx -= 1
        if ev.kind != want:
            continue
        if want == "compute":
            if match is not None and (ev.start, ev.stop) != match:
                continue
            match = (ev.start, ev.stop)
            nxt = "assign"
        elif want == "assign":
            if (ev.start, ev.stop) != match:
                continue
            match = None
            nxt = "request"
        else:  # request -- no interval; preceding compute re-anchors
            nxt = "compute"
        chain.append(ChainLink(
            kind=ev.kind, worker=ev.worker, t=ev.t,
            start=ev.start, stop=ev.stop,
        ))
        want = nxt
    return chain


def critical_path(events: Iterable[ObsEvent]) -> CritPathReport:
    """Explain an event stream: attribution, chain, imbalance.

    ``makespan`` is the last ``result`` arrival -- the paper's
    :math:`T_p` -- falling back to the last event time for streams
    with no result events.

    Request -> assign gaps pair in stream order, before each worker's
    events are time-sorted: the sources of a merged file each keep
    their own time base, so a time sort would pair across them.
    """
    per_worker: dict[int, list[ObsEvent]] = {}
    dispatch: dict[int, list[float]] = {}
    asked: dict[int, float] = {}
    last_result: Optional[ObsEvent] = None
    for ev in events:
        worker = ev.worker
        if worker < 0:
            continue
        per_worker.setdefault(worker, []).append(ev)
        kind = ev.kind
        if kind == "result":
            if last_result is None or ev.t >= last_result.t:
                last_result = ev
        elif kind == "request":
            asked[worker] = ev.t
        elif kind == "assign":
            at = asked.pop(worker, None)
            if at is not None and ev.t >= at:
                dispatch.setdefault(worker, []).append(ev.t - at)
    for evs in per_worker.values():
        evs.sort(key=operator.attrgetter("t"))
    if last_result is not None:
        makespan = last_result.t
    elif per_worker:
        makespan = max(
            ev.t + (ev.value or 0.0) if ev.kind == "compute" else ev.t
            for evs in per_worker.values() for ev in evs
        )
    else:
        makespan = 0.0

    workers = [
        _span_categories(evs, makespan, dispatch.get(worker, []))
        for worker, evs in sorted(per_worker.items())
    ]
    finishes = [w.finish_t for w in workers]
    busies = [w.busy for w in workers]
    finish_max = max(finishes) if finishes else 0.0
    finish_mean = (
        sum(finishes) / len(finishes) if finishes else 0.0
    )
    finish_spread = (
        finish_max - min(finishes) if finishes else 0.0
    )
    return CritPathReport(
        makespan=makespan,
        workers=workers,
        chain=_blocking_chain(per_worker, last_result),
        finish_max=finish_max,
        finish_mean=finish_mean,
        finish_spread=finish_spread,
        imbalance=imbalance(finishes),
        busy_sigma=population_sigma(busies),
    )


def trace_report(
    events: Iterable[ObsEvent],
    title: str = "trace report",
) -> str:
    """Render the per-worker utilization/latency table of a trace.

    Works on *any* captured trace -- simulated or real -- because it
    reads only schema events, through :func:`critical_path`.
    """
    events = list(events)
    if not events:
        return f"{title}: (empty trace)"
    workers = critical_path(events).workers
    horizon = max((w.last_t for w in workers), default=0.0)
    sources = sorted({ev.source for ev in events})
    lines = [
        f"{title} -- {len(events)} events from "
        f"{', '.join(sources)}; horizon t={horizon:.4f}",
        "",
        f"{'worker':>6} {'chunks':>7} {'iters':>8} {'busy(s)':>10} "
        f"{'util%':>6} {'disp.mean':>10} {'disp.max':>9} "
        f"{'faults':>6} {'restarts':>8}",
    ]
    disp = Histogram("dispatch_latency")
    for w in workers:
        mine = Histogram("dispatch_latency")
        for gap in w.dispatch:
            mine.observe(gap)
            disp.observe(gap)
        span = horizon - w.first_t
        util = w.busy / span if span > 0 else 0.0
        lines.append(
            f"{w.worker:>6d} {w.chunks:>7d} {w.iterations:>8d} "
            f"{w.busy:>10.4f} {100 * util:>6.1f} "
            f"{mine.mean:>10.5f} {mine.max or 0.0:>9.5f} "
            f"{w.faults:>6d} {w.restarts:>8d}"
        )
    census: dict[str, int] = {}
    chunk = Histogram("chunk_size")
    for ev in events:
        census[ev.kind] = census.get(ev.kind, 0) + 1
        if ev.kind == "compute":
            chunk.observe((ev.stop or 0) - (ev.start or 0))
    lines.append("")
    lines.append(
        "events: " + "  ".join(
            f"{kind}={census[kind]}" for kind in sorted(census)
        )
    )
    lines.append(
        f"chunk size: n={chunk.count} mean={chunk.mean:.1f} "
        f"min={chunk.min or 0:.0f} max={chunk.max or 0:.0f}; "
        f"dispatch latency: mean={disp.mean:.5f}s "
        f"p90~{disp.quantile(0.9):.5f}s"
    )
    lines.append(f"canonical stream sha256: {stream_digest(events)}")
    return "\n".join(lines)


@dataclasses.dataclass
class DriftReport(object):
    """Observed-vs-predicted chunk timing diff."""

    matched: int
    unmatched_observed: int
    unmatched_predicted: int
    max_abs_drift: float
    mean_abs_drift: float

    @property
    def ok(self) -> bool:
        """No unmatched chunks and drift within float-sum noise."""
        return (
            self.unmatched_observed == 0
            and self.unmatched_predicted == 0
            and self.max_abs_drift <= 1e-9
        )

    def to_dict(self) -> dict:
        return {
            "matched": self.matched,
            "unmatched_observed": self.unmatched_observed,
            "unmatched_predicted": self.unmatched_predicted,
            "max_abs_drift": self.max_abs_drift,
            "mean_abs_drift": self.mean_abs_drift,
            "ok": self.ok,
        }


def fastpath_drift(
    events: Iterable[ObsEvent],
    predicted,
) -> DriftReport:
    """Diff observed chunk completion times against a prediction.

    ``predicted`` is an iterable of chunk records with ``start``,
    ``stop`` and ``completed_at`` attributes (e.g.
    ``SimResult.chunks`` from an analytic fast-path run, where
    ``completed_at`` is the compute finish).  The observed completion
    of a chunk is its ``compute`` event's ``t + value``.  Chunks are
    matched on their ``[start, stop)`` interval; duplicate intervals
    (chaos reruns) match in time order.
    """
    observed: dict[tuple, list[float]] = {}
    n_observed = 0
    for ev in events:
        if ev.kind != "compute" or ev.start is None:
            continue
        end = ev.t + (ev.value or 0.0)
        observed.setdefault((ev.start, ev.stop), []).append(end)
        n_observed += 1
    for times in observed.values():
        times.sort()
    drifts: list[float] = []
    unmatched_predicted = 0
    for rec in predicted:
        key = (rec.start, rec.stop)
        times = observed.get(key)
        if not times:
            unmatched_predicted += 1
            continue
        drifts.append(abs(times.pop(0) - rec.completed_at))
    unmatched_observed = n_observed - len(drifts)
    return DriftReport(
        matched=len(drifts),
        unmatched_observed=unmatched_observed,
        unmatched_predicted=unmatched_predicted,
        max_abs_drift=max(drifts) if drifts else 0.0,
        mean_abs_drift=(
            sum(drifts) / len(drifts) if drifts else 0.0
        ),
    )
