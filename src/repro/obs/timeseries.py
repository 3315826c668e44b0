"""Rolling time-series windows over the unified event stream.

:func:`repro.obs.critpath.critical_path` answers "where did the time
go over the whole run"; a live daemon needs "what is happening *now*".
:class:`RollingWindow` is a fixed-width ring of time bins (no
unbounded growth, O(bins) memory per series) and
:class:`RollingMetrics` feeds a small catalog of windows from
:class:`~repro.obs.events.ObsEvent` instances as they arrive,
exposing rate / utilization / imbalance gauges for
``ServiceServer._metrics_snapshot`` and ``repro-service metrics
--watch``.

Time discipline: nothing in this module reads a clock (REP002 -- the
windows must be drivable by simulated time for tests and by the
pool's monotonic clock in the daemon).  Every observation and every
query carries an explicit timestamp; by default events are keyed on
their own ``t`` and queries on the latest time seen.
"""

from __future__ import annotations

import math
from typing import Optional

from .events import ObsEvent
from .metrics import imbalance, population_sigma

__all__ = [
    "RollingWindow",
    "RollingMetrics",
]


class RollingWindow(object):
    """A ring of time bins holding (sum, count) of observations.

    The window covers ``[now - width, now]``: observations older than
    ``width`` are forgotten lazily when their bin is reused or when a
    query's ``now`` has moved past them.  Observations are accepted in
    any order as long as they are within the window; stale ones (older
    than ``width`` before the newest time seen) are dropped and
    counted in :attr:`stale`.
    """

    __slots__ = (
        "width", "bins", "_bin_width", "_sums", "_counts", "_epochs",
        "_latest", "stale",
    )

    def __init__(self, width: float, bins: int = 60) -> None:
        if width <= 0 or not math.isfinite(width):
            raise ValueError(f"window width must be finite > 0: {width}")
        if bins < 1:
            raise ValueError(f"window needs >= 1 bin, got {bins}")
        self.width = float(width)
        self.bins = int(bins)
        self._bin_width = self.width / self.bins
        self._sums = [0.0] * self.bins
        self._counts = [0] * self.bins
        # Which absolute bin (epoch) each slot currently holds; -1 for
        # never-used so epoch 0 observations are not silently merged.
        self._epochs = [-1] * self.bins
        self._latest: Optional[float] = None
        self.stale = 0

    def _epoch(self, t: float) -> int:
        return int(t // self._bin_width)

    def observe(self, t: float, value: float = 1.0) -> None:
        """Record ``value`` at time ``t`` (any non-negative time)."""
        t = float(t)
        if self._latest is None or t > self._latest:
            self._latest = t
        elif t < self._latest - self.width:
            self.stale += 1
            return
        epoch = self._epoch(t)
        slot = epoch % self.bins
        if self._epochs[slot] != epoch:
            self._epochs[slot] = epoch
            self._sums[slot] = 0.0
            self._counts[slot] = 0
        self._sums[slot] += value
        self._counts[slot] += 1

    @property
    def latest(self) -> Optional[float]:
        """Newest observation time seen, or ``None`` when empty."""
        return self._latest

    def _resolve_now(self, now: Optional[float]) -> float:
        if now is None:
            now = self._latest
        return 0.0 if now is None else float(now)

    def _live(self, now: float):
        # Bins whose epoch falls inside [now - width, now].
        lo = self._epoch(max(0.0, now - self.width))
        hi = self._epoch(now)
        for slot in range(self.bins):
            epoch = self._epochs[slot]
            if lo <= epoch <= hi:
                yield slot

    def total(self, now: Optional[float] = None) -> float:
        """Sum of values inside the window ending at ``now``."""
        now = self._resolve_now(now)
        return sum(self._sums[s] for s in self._live(now))

    def count(self, now: Optional[float] = None) -> int:
        """Number of observations inside the window."""
        now = self._resolve_now(now)
        return sum(self._counts[s] for s in self._live(now))

    def rate(self, now: Optional[float] = None) -> float:
        """Observations per second over the window."""
        return self.count(now) / self.width

    def value_rate(self, now: Optional[float] = None) -> float:
        """Sum of values per second over the window."""
        return self.total(now) / self.width

    def mean(self, now: Optional[float] = None) -> float:
        """Mean observed value inside the window (0.0 when empty)."""
        n = self.count(now)
        return self.total(now) / n if n else 0.0


class RollingMetrics(object):
    """The live-telemetry catalog: rolling windows fed by ObsEvents.

    ========================= =========================================
    gauge                     meaning (all over the last ``width`` s)
    ========================= =========================================
    ``chunk_rate``            compute events / s
    ``iteration_rate``        loop iterations completed / s
    ``result_rate``           result events / s
    ``fault_rate``            fault events / s
    ``job_rate``              service job completions / s
    ``utilization``           busy seconds / (workers x width)
    ``imbalance``             (max - min) / mean of per-worker busy
                              seconds (the paper's imbalance metric
                              applied to the window)
    ``busy_sigma``            population std-dev of per-worker busy s
    ========================= =========================================

    ``observe(event, at=...)`` keys the windows on ``at`` when given
    (the daemon passes its receive time so many jobs' sim clocks do
    not collide), else on the event's own ``t``.
    """

    def __init__(self, width: float = 10.0, bins: int = 60) -> None:
        self.width = float(width)
        self.bins = int(bins)
        self.chunks = RollingWindow(width, bins)
        self.iterations = RollingWindow(width, bins)
        self.results = RollingWindow(width, bins)
        self.faults = RollingWindow(width, bins)
        self.jobs = RollingWindow(width, bins)
        self.busy: dict[int, RollingWindow] = {}

    def _busy_window(self, worker: int) -> RollingWindow:
        win = self.busy.get(worker)
        if win is None:
            win = RollingWindow(self.width, self.bins)
            self.busy[worker] = win
        return win

    def observe(self, event: ObsEvent,
                at: Optional[float] = None) -> None:
        """Fold one event into the windows."""
        t = float(event.t) if at is None else float(at)
        kind = event.kind
        if kind == "compute":
            self.chunks.observe(t)
            size = (event.stop or 0) - (event.start or 0)
            if size > 0:
                self.iterations.observe(t, float(size))
            if event.value is not None and event.worker >= 0:
                self._busy_window(event.worker).observe(t, event.value)
        elif kind == "result":
            self.results.observe(t)
        elif kind == "fault":
            self.faults.observe(t)
        elif kind == "job-result":
            self.jobs.observe(t)

    def observe_all(self, events, at: Optional[float] = None) -> None:
        for ev in events:
            self.observe(ev, at=at)

    def latest(self) -> Optional[float]:
        times = [
            w.latest for w in (
                self.chunks, self.iterations, self.results,
                self.faults, self.jobs, *self.busy.values(),
            ) if w.latest is not None
        ]
        return max(times) if times else None

    def snapshot(self, now: Optional[float] = None) -> dict:
        """JSON-able gauge values for the window ending at ``now``."""
        if now is None:
            now = self.latest()
        busy_totals = [
            w.total(now) for w in self.busy.values()
        ]
        utilization = 0.0
        if busy_totals:
            mean = sum(busy_totals) / len(busy_totals)
            utilization = min(1.0, mean / self.width)
        return {
            "window_seconds": self.width,
            "now": now if now is not None else 0.0,
            "chunk_rate": self.chunks.rate(now),
            "iteration_rate": self.iterations.value_rate(now),
            "result_rate": self.results.rate(now),
            "fault_rate": self.faults.rate(now),
            "job_rate": self.jobs.rate(now),
            "utilization": utilization,
            "imbalance": imbalance(busy_totals),
            "busy_sigma": population_sigma(busy_totals),
            "workers_seen": len(self.busy),
        }
