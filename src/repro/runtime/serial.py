"""Serial baseline helpers (speedup denominators).

Kept as a module of its own so benchmarks and examples have one obvious
place to get a timed serial execution.
"""

from __future__ import annotations

import time

from ..workloads import Workload

__all__ = ["time_serial", "plan_time_scale"]


def time_serial(workload: Workload, repeats: int = 1) -> float:
    """Median wall-clock seconds for a full serial execution."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        workload.execute_serial()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


def plan_time_scale(workload: Workload, n_workers: int) -> float:
    """Wall-clock seconds per unit of fault-plan time for this host.

    ``run_parallel(..., plan=plan, time_scale=...)`` with this scale
    lands a unit-horizon plan inside the first 40% of the ideal
    parallel time, *measured* here by one serial execution -- so a kill
    hits a worker that owns a chunk whether the host is fast, slow or
    loaded.  The 50 ms floor keeps injections behind process start-up.
    """
    return max(0.4 * time_serial(workload) / n_workers, 0.05)
