"""Synthetic parallel-loop styles from the paper's taxonomy (Sec. 2.1).

Each class realizes one of the ``L(i)`` shapes the paper enumerates as
DOALL examples, so scheduling behaviour can be studied on loops whose
cost structure is known in closed form:

* :class:`UniformWorkload` -- ``X[K] = X[K] + A``: constant ``L(i)``.
* :class:`LinearWorkload` -- the increasing (``J = 1..K``) and
  decreasing (``J = 1..I-K+1``) nested-serial-loop examples.
* :class:`ConditionalWorkload` -- the IF/ELSE example: two cost levels
  selected per-iteration by a predicate.
* :class:`RandomWorkload` -- seeded irregular costs (the "cannot be
  ordered" class) for stress tests beyond Mandelbrot.
* :class:`GaussianPeakWorkload` -- a smooth hump, a stand-in for the
  Mandelbrot profile with tunable sharpness.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .base import Workload, WorkloadError

__all__ = [
    "UniformWorkload",
    "LinearWorkload",
    "ConditionalWorkload",
    "RandomWorkload",
    "GaussianPeakWorkload",
]


class UniformWorkload(Workload):
    """Uniformly distributed loop: every iteration costs ``unit``."""

    name = "uniform"

    def __init__(self, size: int, unit: float = 1.0) -> None:
        super().__init__(size)
        if unit <= 0:
            raise WorkloadError(f"unit cost must be > 0, got {unit}")
        self.unit = float(unit)

    def _compute_costs(self) -> np.ndarray:
        return np.full(self.size, self.unit)


class LinearWorkload(Workload):
    """Linearly distributed loop (paper's increasing/decreasing DOALLs).

    Increasing: ``L(i) = base + slope * i`` (the inner serial loop runs
    ``K`` times at iteration ``K``); ``increasing=False`` mirrors it.
    """

    def __init__(
        self,
        size: int,
        increasing: bool = True,
        base: float = 1.0,
        slope: float = 1.0,
    ) -> None:
        super().__init__(size)
        if base <= 0 or slope < 0:
            raise WorkloadError(
                f"need base > 0 and slope >= 0, got base={base} slope={slope}"
            )
        self.increasing = bool(increasing)
        self.base = float(base)
        self.slope = float(slope)
        self.name = "linear-inc" if increasing else "linear-dec"

    def _compute_costs(self) -> np.ndarray:
        ramp = self.base + self.slope * np.arange(self.size)
        return ramp if self.increasing else ramp[::-1].copy()


def _every_third(idx: np.ndarray) -> np.ndarray:
    """Default conditional predicate: Block1 on every third iteration.

    Module-level (not a lambda) so conditional workloads stay picklable
    for the multiprocessing runtime.
    """
    return idx % 3 == 0


class ConditionalWorkload(Workload):
    """Conditional loop: ``cost_true`` where ``predicate(i)`` else
    ``cost_false`` (the paper's IF/ELSE Block1/Block2 example).

    The default predicate (every third iteration) makes an uneven comb.
    """

    name = "conditional"

    def __init__(
        self,
        size: int,
        cost_true: float = 10.0,
        cost_false: float = 1.0,
        predicate: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> None:
        super().__init__(size)
        if cost_true <= 0 or cost_false <= 0:
            raise WorkloadError("both branch costs must be > 0")
        self.cost_true = float(cost_true)
        self.cost_false = float(cost_false)
        self.predicate = predicate or _every_third

    def _compute_costs(self) -> np.ndarray:
        idx = np.arange(self.size)
        mask = np.asarray(self.predicate(idx), dtype=bool)
        if mask.shape != (self.size,):
            raise WorkloadError(
                f"predicate returned shape {mask.shape}, "
                f"expected ({self.size},)"
            )
        return np.where(mask, self.cost_true, self.cost_false)


class RandomWorkload(Workload):
    """Irregular loop: i.i.d. costs from a seeded lognormal distribution.

    Lognormal matches the heavy-tailed flavour of real irregular loops
    (a few iterations dominate).  Deterministic given ``seed``.
    """

    name = "random"

    def __init__(
        self,
        size: int,
        seed: int = 0,
        mean: float = 1.0,
        sigma: float = 1.0,
    ) -> None:
        super().__init__(size)
        if mean <= 0 or sigma < 0:
            raise WorkloadError(
                f"need mean > 0 and sigma >= 0, got {mean}, {sigma}"
            )
        self.seed = int(seed)
        self.mean = float(mean)
        self.sigma = float(sigma)

    def _compute_costs(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        raw = rng.lognormal(mean=0.0, sigma=self.sigma, size=self.size)
        return raw * self.mean / (raw.mean() or 1.0) if self.size else raw


class TraceWorkload(Workload):
    """A loop whose per-iteration costs come from a user-supplied array.

    The escape hatch for studying scheduling against *measured*
    profiles: record per-iteration times from any real program, load
    them here, and every scheme/engine/experiment in the library works
    unchanged.  ``execute`` returns the costs (there is no real
    computation behind a trace).
    """

    name = "trace"

    def __init__(self, costs) -> None:
        arr = np.asarray(costs, dtype=np.float64).ravel()
        super().__init__(arr.size)
        self._trace = arr.copy()
        # Resolve now: a bad trace (negative, NaN, inf) fails where it
        # is supplied, not inside the first simulation that reads it.
        self.costs()

    def _compute_costs(self) -> np.ndarray:
        return self._trace.copy()


class SpinWorkload(Workload):
    """Uniform *compute-bound* loop: each iteration chains ``spins``
    vectorized transcendental passes over a ``veclen`` vector.

    Unlike matrix addition (memory-bound: repeat executions run
    cache-hot and cost far less than the first), a sin/sqrt chain keeps
    the ALU busy every time -- which makes this the right loop for
    slowdown emulation tests.
    """

    name = "spin"

    def __init__(
        self, size: int, spins: int = 20, veclen: int = 2048
    ) -> None:
        super().__init__(size)
        if spins < 1 or veclen < 1:
            raise WorkloadError(
                f"spins and veclen must be >= 1, got {spins}, {veclen}"
            )
        self.spins = int(spins)
        self.veclen = int(veclen)

    def _compute_costs(self) -> np.ndarray:
        return np.full(self.size, float(self.spins * self.veclen))

    def execute(self, start: int, stop: int) -> np.ndarray:
        if not 0 <= start <= stop <= self.size:
            raise WorkloadError(
                f"chunk [{start}, {stop}) out of range [0, {self.size}]"
            )
        out = np.empty(stop - start)
        for k, i in enumerate(range(start, stop)):
            x = np.linspace(0.1, 1.0, self.veclen) + i
            for _ in range(self.spins):
                x = np.sqrt(np.abs(np.sin(x)) + 0.5)
            out[k] = float(x.sum())
        return out


class GaussianPeakWorkload(Workload):
    """Smooth hump: ``L(i) = floor_ + amp * exp(-((i-mu)/width)^2)``.

    A differentiable stand-in for the Mandelbrot column profile
    (Figure 1a): cheap at the edges, expensive around the peak.
    """

    name = "gaussian-peak"

    def __init__(
        self,
        size: int,
        amplitude: float = 100.0,
        floor: float = 1.0,
        center: Optional[float] = None,
        width: Optional[float] = None,
    ) -> None:
        super().__init__(size)
        if amplitude < 0 or floor <= 0:
            raise WorkloadError(
                f"need amplitude >= 0 and floor > 0, got {amplitude}, {floor}"
            )
        self.amplitude = float(amplitude)
        self.floor = float(floor)
        self.center = float(center) if center is not None else size / 2.0
        self.width = float(width) if width is not None else max(size / 6.0, 1.0)

    def _compute_costs(self) -> np.ndarray:
        i = np.arange(self.size, dtype=np.float64)
        # Huge ``floor`` and ``amplitude`` overflow to inf here, which
        # ``_checked`` then refuses as a non-finite cost.
        with np.errstate(over="ignore"):
            return self.floor + self.amplitude * np.exp(
                -(((i - self.center) / self.width) ** 2)
            )
