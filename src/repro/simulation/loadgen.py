"""Run-queue load traces -- the nondedicated-mode model.

The paper's entire external-load model is the run-queue length ``Q_i``:
"a process running on a computer will take an equal share of its
computing resources", so a PE with ``Q`` runnable processes computes the
loop at ``speed / Q``.  A :class:`LoadTrace` is a piecewise-constant
``Q(t) >= 1`` (the loop process itself is always counted).

Traces provided:

* :class:`ConstantLoad` -- the paper's experiments: overloaded slaves
  run two extra matrix-add processes for the whole run (``Q = 3``).
* :class:`StepLoad` -- explicit breakpoints, e.g. "a new user logs in
  ... and starts a computational resources expensive task" mid-run,
  the scenario motivating DTSS's re-derivation rule.
* :class:`RandomLoad` -- seeded Poisson arrivals of busy periods, for
  property tests of the adaptive path.

:func:`integrate_compute` converts an amount of work into a finish time
under a trace, walking the piecewise-constant rate exactly (no time
stepping, no drift).
"""

from __future__ import annotations

import bisect
import math
from abc import ABC, abstractmethod
from typing import Optional, Sequence

import numpy as np

from .events import SimulationError

__all__ = [
    "LoadTrace",
    "ConstantLoad",
    "StepLoad",
    "RandomLoad",
    "OverlayLoad",
    "integrate_compute",
]


class LoadTrace(ABC):
    """Piecewise-constant run-queue length over virtual time."""

    @abstractmethod
    def q_at(self, t: float) -> int:
        """Run-queue length at time ``t`` (always >= 1)."""

    @abstractmethod
    def next_change(self, t: float) -> Optional[float]:
        """First instant strictly after ``t`` where ``q`` may change,
        or None if constant forever after."""


class ConstantLoad(LoadTrace):
    """``Q(t) = q`` forever; ``q = 1`` is a dedicated PE."""

    def __init__(self, q: int = 1) -> None:
        if q < 1:
            raise SimulationError(f"run-queue length must be >= 1, got {q}")
        self.q = int(q)

    def q_at(self, t: float) -> int:
        return self.q

    def next_change(self, t: float) -> Optional[float]:
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ConstantLoad(q={self.q})"


class StepLoad(LoadTrace):
    """Explicit breakpoints: ``steps = [(t0, q0), (t1, q1), ...]``.

    ``q`` before the first breakpoint is ``initial`` (default 1);
    breakpoints must be strictly increasing in time.
    """

    def __init__(
        self, steps: Sequence[tuple[float, int]], initial: int = 1
    ) -> None:
        if initial < 1:
            raise SimulationError(f"initial q must be >= 1, got {initial}")
        times = [float(t) for t, _ in steps]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise SimulationError(f"breakpoints must increase: {times}")
        if any(q < 1 for _, q in steps):
            raise SimulationError("all q values must be >= 1")
        self._times = times
        self._qs = [int(q) for _, q in steps]
        self.initial = int(initial)

    def q_at(self, t: float) -> int:
        idx = bisect.bisect_right(self._times, t) - 1
        return self.initial if idx < 0 else self._qs[idx]

    def next_change(self, t: float) -> Optional[float]:
        idx = bisect.bisect_right(self._times, t)
        return self._times[idx] if idx < len(self._times) else None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        steps = list(zip(self._times, self._qs))
        return f"StepLoad(steps={steps!r}, initial={self.initial})"


class RandomLoad(LoadTrace):
    """Poisson busy periods: exponential gaps, exponential durations.

    Deterministic given ``seed``; the trace is generated lazily as far
    into the future as queried, so simulations of any length see a
    consistent realization.
    """

    def __init__(
        self,
        seed: int = 0,
        arrival_rate: float = 0.05,
        mean_duration: float = 5.0,
        q_busy: int = 3,
    ) -> None:
        if arrival_rate <= 0 or mean_duration <= 0:
            raise SimulationError(
                "arrival_rate and mean_duration must be > 0"
            )
        if q_busy < 2:
            raise SimulationError(f"q_busy must be >= 2, got {q_busy}")
        self._rng = np.random.default_rng(seed)
        self.seed = int(seed)
        self.arrival_rate = float(arrival_rate)
        self.mean_duration = float(mean_duration)
        self.q_busy = int(q_busy)
        self._edges: list[float] = []  # alternating busy-start/busy-end
        self._horizon = 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RandomLoad(seed={self.seed}, "
            f"arrival_rate={self.arrival_rate}, "
            f"mean_duration={self.mean_duration}, q_busy={self.q_busy})"
        )

    def _extend(self, t: float) -> None:
        while self._horizon <= t:
            gap = self._rng.exponential(1.0 / self.arrival_rate)
            dur = self._rng.exponential(self.mean_duration)
            start = self._horizon + gap
            self._edges.append(start)
            self._edges.append(start + dur)
            self._horizon = start + dur

    def q_at(self, t: float) -> int:
        self._extend(t)
        idx = bisect.bisect_right(self._edges, t)
        return self.q_busy if idx % 2 == 1 else 1

    def next_change(self, t: float) -> Optional[float]:
        self._extend(t + 1e-9)
        idx = bisect.bisect_right(self._edges, t)
        while idx >= len(self._edges):
            self._extend(self._horizon + 1.0)
            idx = bisect.bisect_right(self._edges, t)
        return self._edges[idx]


class OverlayLoad(LoadTrace):
    """A base trace plus transient extra-load windows.

    ``windows`` is a sequence of ``(start, end, extra_q)``: during each
    half-open window ``[start, end)`` the run queue is the base trace's
    value plus ``extra_q``.  Overlapping windows stack.  This is how
    chaos :class:`~repro.chaos.LoadSpike` events reach the simulator
    without mutating the caller's cluster spec.
    """

    def __init__(
        self,
        base: LoadTrace,
        windows: Sequence[tuple[float, float, int]],
    ) -> None:
        cleaned = []
        for start, end, extra in windows:
            start, end, extra = float(start), float(end), int(extra)
            if end <= start:
                raise SimulationError(
                    f"window must have end > start, got [{start}, {end})"
                )
            if extra < 1:
                raise SimulationError(
                    f"window extra_q must be >= 1, got {extra}"
                )
            cleaned.append((start, end, extra))
        self.base = base
        self.windows = sorted(cleaned)

    def q_at(self, t: float) -> int:
        q = self.base.q_at(t)
        for start, end, extra in self.windows:
            if start <= t < end:
                q += extra
        return q

    def next_change(self, t: float) -> Optional[float]:
        nxt = self.base.next_change(t)
        for start, end, _extra in self.windows:
            for edge in (start, end):
                if edge > t:
                    nxt = edge if nxt is None else min(nxt, edge)
                    break
        return nxt

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OverlayLoad(base={self.base!r}, windows={self.windows!r})"


def integrate_compute(
    start: float, work: float, speed: float, trace: LoadTrace
) -> float:
    """Finish time of ``work`` basic ops begun at ``start`` under ``trace``.

    The PE computes at ``speed / Q(t)``; the integration walks the
    piecewise-constant segments exactly.
    """
    if work < 0:
        raise SimulationError(f"work must be >= 0, got {work}")
    if speed <= 0:
        raise SimulationError(f"speed must be > 0, got {speed}")
    t = float(start)
    remaining = float(work)
    # Tolerance avoids infinite loops on zero-length segments.
    while remaining > 1e-12:
        rate = speed / trace.q_at(t)
        change = trace.next_change(t)
        if change is None or not math.isfinite(change):
            return t + remaining / rate
        dt = change - t
        capacity = rate * dt
        if capacity >= remaining:
            return t + remaining / rate
        remaining -= capacity
        t = change
    return t
