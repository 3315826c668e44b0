"""Factoring Self-Scheduling (Hummel, Schonberg & Flynn 1992) and
Weighted Factoring (Hummel, Schmidt, Uma & Wein 1996).  Paper Sec. 2.2.

**FSS** schedules in *stages*: at each stage every one of the ``p`` PEs
receives one chunk of the same size

    ``C = R / (alpha * p)``,

after which ``R`` has shrunk by the factor ``1/alpha`` and the next
stage begins.  The analysis in Hummel et al. gives ``alpha`` from a
probabilistic model; the suboptimal-but-robust choice ``alpha = 2``
(each stage hands out half the remaining work) is what the paper uses.

Rounding: the paper writes ``C_i = [R_{i-1}/(alpha p)]``.  Its Table 1
row for ``I = 1000, p = 4``::

    125 62 32 16 8 4 2 1      (per PE, 4 PEs per stage)

is reproduced exactly by *round-half-to-even* (62.5 -> 62, 31.5 -> 32,
15.5 -> 16, 7.5 -> 8, 3.5 -> 4, 1.5 -> 2), i.e. C ``rint`` semantics --
not by ``ceil`` (which gives 63) or ``floor`` (which gives 31).  The
default therefore matches the paper; ``rounding`` selects alternatives.

**Weighted Factoring (WF)** splits each stage's total in proportion to
*static* relative powers ``V_j`` instead of evenly.  Per the paper's
Sec. 6 remark, WF is *not* "distributed" in their sense because it never
consults run-time load -- it is included as the static-weights
comparator and as the base pattern that DFSS makes adaptive.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

from .base import Scheduler, SchemeError

__all__ = ["FactoringScheduler", "WeightedFactoringScheduler", "ROUNDINGS"]


def _round_half_even(x: float) -> int:
    """Round to nearest with ties to even (banker's rounding)."""
    f = math.floor(x)
    diff = x - f
    if diff > 0.5:
        return f + 1
    if diff < 0.5:
        return f
    return f if f % 2 == 0 else f + 1


#: Supported rounding modes for the per-stage chunk computation.
ROUNDINGS: dict[str, Callable[[float], int]] = {
    "half-even": _round_half_even,
    "ceil": math.ceil,
    "floor": math.floor,
}


class StageLadderScheduler(Scheduler):
    """Base for staged schemes: per-worker stage progression.

    A staged scheme plans a *lockstep* sequence of per-PE stage chunks
    ``c_1, c_2, ...`` ("in each stage all PEs are assigned one task" of
    size ``c_k``).  Under an asynchronous master--slave protocol,
    requests interleave unevenly: a fast PE may be three chunks ahead
    of a slow one.  The faithful semantics -- each PE receives exactly
    one chunk per stage, *its* stages -- is a per-worker ladder: worker
    ``j``'s ``k``-th request receives ``c_k`` regardless of where other
    workers are.  (Global-stage alternatives misbehave under
    heterogeneity: counting requests lets fast PEs consume slow PEs'
    shares of a stage; advancing on repeat requests skips stages whose
    shares then pile into the final one.)

    Subclasses provide :meth:`_plan`, returning the lockstep per-PE
    chunk sequence; requests beyond the plan get a shrinking tail (the
    driver clips to the loop's remaining iterations, so over-planning
    is harmless and under-planning self-heals).
    """

    decentral = True

    def __init__(self, total: int, workers: int) -> None:
        super().__init__(total, workers)
        self._ladder: list[int] = [
            max(1, int(c)) for c in self._plan()
        ] or [1]

    def _plan(self) -> list[int]:
        """The lockstep per-PE stage chunk sequence (``c_1, c_2, ...``)."""
        raise NotImplementedError

    def _nominal(
        self, rem: int, step: int, wid: int, k: int
    ) -> tuple[int, int]:
        if k < len(self._ladder):
            return self._ladder[k], k + 1
        # Beyond the plan (rounding/clipping left iterations over): a
        # shrinking factoring-style tail.  Replaying the final rung
        # would hand out the plan's *largest* chunks late for
        # increasing schemes (FISS) -- the exact straggler pattern
        # stages exist to avoid.
        return math.ceil(rem / (2 * self.workers)), k + 1


class FactoringScheduler(StageLadderScheduler):
    """FSS(alpha): equal chunks within a stage of ``p`` assignments."""

    name = "FSS"

    def __init__(
        self,
        total: int,
        workers: int,
        alpha: float = 2.0,
        rounding: str = "half-even",
    ) -> None:
        if alpha <= 1.0:
            raise SchemeError(f"alpha must be > 1, got {alpha}")
        if rounding not in ROUNDINGS:
            raise SchemeError(
                f"unknown rounding {rounding!r}; pick from {sorted(ROUNDINGS)}"
            )
        self.alpha = float(alpha)
        self._round = ROUNDINGS[rounding]
        self.rounding = rounding
        super().__init__(total, workers)

    def _plan(self) -> list[int]:
        # Lockstep drain: each stage hands every PE one chunk of
        # round(R / (alpha p)) and shrinks R accordingly.
        plan: list[int] = []
        remaining = self.total
        while remaining > 0:
            chunk = max(
                1, self._round(remaining / (self.alpha * self.workers))
            )
            plan.append(chunk)
            remaining -= chunk * self.workers
        return plan


class WeightedFactoringScheduler(Scheduler):
    """WF: factoring stages split by static weights ``V_j / V``.

    Stage ``k``'s total is ``R_k / alpha`` with ``R_k`` the lockstep
    remainder (``R_{k+1} = R_k - R_k/alpha``); worker ``j``'s ``k``-th
    chunk is its weight share of that total (at least 1).  Like the
    other staged schemes this uses a per-worker stage ladder (see
    :class:`StageLadderScheduler`), but the ladder rung differs per
    worker, so it keeps its own table.
    """

    name = "WF"
    distributed = False  # static weights only -- paper Sec. 6 remark

    def __init__(
        self,
        total: int,
        workers: int,
        weights: Optional[Sequence[float]] = None,
        alpha: float = 2.0,
    ) -> None:
        super().__init__(total, workers)
        if alpha <= 1.0:
            raise SchemeError(f"alpha must be > 1, got {alpha}")
        if weights is None:
            weights = [1.0] * workers
        if len(weights) != workers:
            raise SchemeError(f"need {workers} weights, got {len(weights)}")
        if any(w <= 0 for w in weights):
            raise SchemeError(f"weights must be positive, got {list(weights)}")
        self.alpha = float(alpha)
        self.weights = [float(w) for w in weights]
        self._wsum = float(sum(self.weights))
        # Lockstep stage totals SC_k.
        self._stage_totals: list[int] = []
        remaining = total
        while remaining > 0:
            sc = max(1, int(remaining / self.alpha))
            if sc >= remaining:
                sc = remaining
            self._stage_totals.append(sc)
            remaining -= sc
        if not self._stage_totals:
            self._stage_totals = [max(total, 1)]

    def _nominal(
        self, rem: int, step: int, wid: int, k: int
    ) -> tuple[int, int]:
        idx = min(k, len(self._stage_totals) - 1)
        w = self.weights[wid % self.workers]
        share = self._stage_totals[idx] * w / self._wsum
        return _round_half_even(share), idx + 1
