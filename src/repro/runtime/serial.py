"""Serial baseline helpers (speedup denominators).

Kept as a module of its own so benchmarks and examples have one obvious
place to get a timed serial execution.
"""

from __future__ import annotations

import numpy as np

from ..workloads import Workload
from .chassis import Clock

__all__ = ["run_serial", "plan_time_scale"]


def run_serial(workload: Workload) -> tuple[np.ndarray, float]:
    """Execute the loop serially; returns (results, elapsed seconds)."""
    clock = Clock()
    out = workload.execute_serial()
    return out, clock.now()


def plan_time_scale(workload: Workload, n_workers: int) -> float:
    """Wall-clock seconds per unit of fault-plan time for this host.

    ``run_parallel(..., plan=plan, time_scale=...)`` with this scale
    lands a unit-horizon plan inside the first 40% of the ideal
    parallel time, *measured* here by one serial execution -- so a kill
    hits a worker that owns a chunk whether the host is fast, slow or
    loaded.  The 50 ms floor keeps injections behind process start-up.
    """
    return max(0.4 * run_serial(workload)[1] / n_workers, 0.05)
