"""Load-balance metrics over per-PE quantities.

The paper's balance claims are qualitative ("the execution is
well-balanced, in terms of the computation times"); these metrics make
them checkable: coefficient of variation, max/mean (a direct bound on
achievable speedup loss), and range/mean.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..obs.metrics import imbalance as range_over_mean

__all__ = ["cov", "max_over_mean", "range_over_mean", "balance_report"]


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def cov(values: Sequence[float]) -> float:
    """Coefficient of variation: stddev / mean (0 = perfectly even)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    mean = _mean(values)
    if mean == 0:
        return 0.0
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return math.sqrt(var) / mean


def max_over_mean(values: Sequence[float]) -> float:
    """``max / mean`` >= 1; equals 1 for perfect balance.

    Directly bounds efficiency: a PE-time profile with ``max/mean = r``
    wastes at least ``1 - 1/r`` of the cluster.
    """
    values = list(values)
    mean = _mean(values)
    if not values or mean == 0:
        return 1.0
    return max(values) / mean


def balance_report(values: Sequence[float]) -> dict[str, float]:
    """All three metrics in one dict (for experiment summaries)."""
    return {
        "cov": cov(values),
        "max_over_mean": max_over_mean(values),
        "range_over_mean": range_over_mean(values),
    }
