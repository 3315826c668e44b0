"""Master dispatch cost vs shared-counter contention -- the decentral case.

The master--slave engine pays ``master_service`` seconds of serialized
master time per scheduling request; as the dispatch cost or the worker
count grows, idle time piles up behind the master's FIFO.  The
decentral substrate replaces that server with one atomic fetch-and-add
(``atomic_op_cost``) and local chunk arithmetic, so its makespan should
be *independent* of the master dispatch cost -- there is no master --
while the master engine degrades linearly.  This artifact measures
both claims on the same clusters:

* **dispatch sweep**: for each cluster size ``p`` and each master
  dispatch cost ``d``, simulate the same loop on the master engine
  (which pays ``d`` per request) and on the decentral engine (which
  ignores ``d`` entirely); report both and the decentral spread across
  ``d`` (zero = independence demonstrated).
* **contention sweep**: the decentral engine's own serialized resource
  is the counter; sweep ``atomic_op_cost`` under SS (one atomic per
  iteration -- the worst case) to show where counter contention starts
  to matter and how the hierarchical (leased) mode damps it.

Both sweeps go through :func:`repro.batch.run_batch`, so ``--jobs``
fans them out.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from ..analysis import format_matrix, line_chart
from ..batch import SimJob, run_batch
from ..workloads import UniformWorkload
from .config import alternating_cluster

__all__ = [
    "DecentralPoint",
    "dispatch_sweep",
    "contention_sweep",
    "report",
]

#: Master per-request service times swept (seconds).  The paper-era
#: calibration sits at 0.2 ms; the tail shows degradation.
DEFAULT_DISPATCH_COSTS = (2e-4, 1e-3, 5e-3)
#: Shared-counter atomic costs swept (seconds).
DEFAULT_ATOMIC_COSTS = (1e-6, 2e-5, 2e-4, 1e-3)
DEFAULT_SIZES = (4, 8, 16)
DEFAULT_SCHEME = "TSS"
DEFAULT_TOTAL = 2048


@dataclasses.dataclass(frozen=True)
class DecentralPoint(object):
    """One (p, dispatch cost) comparison."""

    workers: int
    dispatch_cost: float
    master_t_p: float
    decentral_t_p: float


def _workload(total: int) -> UniformWorkload:
    return UniformWorkload(total, unit=100.0)


def dispatch_sweep(
    sizes: Sequence[int] = DEFAULT_SIZES,
    dispatch_costs: Sequence[float] = DEFAULT_DISPATCH_COSTS,
    scheme: str = DEFAULT_SCHEME,
    total: int = DEFAULT_TOTAL,
    n_jobs: int = 1,
) -> list[DecentralPoint]:
    """Master vs decentral T_p over the (p, dispatch cost) grid.

    The decentral jobs receive the *same* cluster objects (including
    the swept ``master_service``) -- the engine has no master, so any
    variation across the row would be a bug, and the artifact prints
    the observed spread to prove there is none.
    """
    wl = _workload(total)
    grid: list[tuple[int, float, SimJob, SimJob]] = []
    for p in sizes:
        for cost in dispatch_costs:
            cluster = alternating_cluster(p, cost)
            grid.append((
                p,
                cost,
                SimJob(scheme=scheme, workload=wl, cluster=cluster,
                       tag=f"decentral-sweep/master/p={p}/d={cost}"),
                SimJob(scheme=scheme, workload=wl, cluster=cluster,
                       engine="decentral",
                       tag=f"decentral-sweep/decentral/p={p}/d={cost}"),
            ))
    jobs = [job for row in grid for job in (row[2], row[3])]
    results = run_batch(jobs, n_jobs=n_jobs)
    points = []
    for i, (p, cost, _mj, _dj) in enumerate(grid):
        points.append(DecentralPoint(
            workers=p,
            dispatch_cost=cost,
            master_t_p=results[2 * i].t_p,
            decentral_t_p=results[2 * i + 1].t_p,
        ))
    return points


def contention_sweep(
    sizes: Sequence[int] = DEFAULT_SIZES,
    atomic_costs: Sequence[float] = DEFAULT_ATOMIC_COSTS,
    total: int = DEFAULT_TOTAL,
    group_size: Optional[int] = 4,
    n_jobs: int = 1,
) -> dict[tuple[int, float], tuple[float, Optional[float]]]:
    """Decentral T_p vs atomic-op cost under SS (worst-case claims).

    Returns ``{(p, atomic_cost): (flat_t_p, hierarchical_t_p)}``;
    the hierarchical leg (group coordinators leasing blocks of 8) is
    None when ``group_size`` is None or ``p <= group_size``.
    """
    wl = _workload(total)
    grid: list[tuple[int, float, bool]] = []
    jobs: list[SimJob] = []
    for p in sizes:
        for cost in atomic_costs:
            cluster = alternating_cluster(p, 0.0)
            jobs.append(SimJob(
                scheme="SS", workload=wl, cluster=cluster,
                engine="decentral",
                params={"atomic_op_cost": cost},
                tag=f"decentral-sweep/contention/p={p}/a={cost}",
            ))
            hier = group_size is not None and p > group_size
            grid.append((p, cost, hier))
            if hier:
                jobs.append(SimJob(
                    scheme="SS", workload=wl, cluster=cluster,
                    engine="decentral",
                    params={"atomic_op_cost": cost,
                            "group_size": group_size, "lease": 8},
                    tag=f"decentral-sweep/contention/p={p}/a={cost}/hier",
                ))
    results = run_batch(jobs, n_jobs=n_jobs)
    out: dict[tuple[int, float], tuple[float, Optional[float]]] = {}
    cursor = 0
    for p, cost, hier in grid:
        flat = results[cursor].t_p
        cursor += 1
        hier_tp: Optional[float] = None
        if hier:
            hier_tp = results[cursor].t_p
            cursor += 1
        out[(p, cost)] = (flat, hier_tp)
    return out


def report(
    sizes: Sequence[int] = DEFAULT_SIZES,
    dispatch_costs: Sequence[float] = DEFAULT_DISPATCH_COSTS,
    atomic_costs: Sequence[float] = DEFAULT_ATOMIC_COSTS,
    scheme: str = DEFAULT_SCHEME,
    total: int = DEFAULT_TOTAL,
    n_jobs: int = 1,
) -> str:
    """The full artifact: dispatch table, independence check, contention."""
    points = dispatch_sweep(sizes=sizes, dispatch_costs=dispatch_costs,
                            scheme=scheme, total=total, n_jobs=n_jobs)
    by_p: dict[int, dict[float, DecentralPoint]] = {}
    for pt in points:
        by_p.setdefault(pt.workers, {})[pt.dispatch_cost] = pt
    rows = []
    spreads = []
    for p in sizes:
        row = []
        dec = [by_p[p][d].decentral_t_p for d in dispatch_costs]
        spreads.append((p, max(dec) - min(dec)))
        for d in dispatch_costs:
            pt = by_p[p][d]
            row.append(f"{pt.master_t_p:.3f} / {pt.decentral_t_p:.3f}")
        rows.append(row)
    table = format_matrix(
        [f"d={d * 1e3:g}ms" for d in dispatch_costs],
        rows,
        [f"p={p}" for p in sizes],
    )
    lines = [
        "decentral-sweep -- no master in the dispatch path",
        f"  scheme {scheme}, I={total} uniform iterations, "
        "heterogeneous fast/slow nodes",
        "",
        "T_p (s) per master dispatch cost d: master engine / decentral "
        "engine",
        "(the decentral engine has no master; d appears in its cell "
        "only to prove it does not matter)",
        table,
        "",
        "decentral T_p spread across dispatch costs (0 = independent):",
    ]
    for p, spread in spreads:
        lines.append(f"  p={p}: {spread:.6f}s")
    biggest = max(sizes)
    series = {
        "master": [
            (d * 1e3, by_p[biggest][d].master_t_p) for d in dispatch_costs
        ],
        "decentral": [
            (d * 1e3, by_p[biggest][d].decentral_t_p)
            for d in dispatch_costs
        ],
    }
    lines.append("")
    lines.append(f"T_p vs dispatch cost (ms) at p={biggest}:")
    lines.append(line_chart(series, width=56, height=10, y_label="T_p"))
    contention = contention_sweep(sizes=sizes, atomic_costs=atomic_costs,
                                  total=total, n_jobs=n_jobs)
    rows = []
    for p in sizes:
        row = []
        for a in atomic_costs:
            flat, hier = contention[(p, a)]
            cell = f"{flat:.3f}"
            if hier is not None:
                cell += f" ({hier:.3f})"
            row.append(cell)
        rows.append(row)
    lines.append("")
    lines.append(
        "counter contention, SS worst case -- decentral T_p (s) per "
        "atomic-op cost;"
    )
    lines.append(
        "parenthesized: hierarchical mode, group coordinators leasing "
        "8-chunk blocks:"
    )
    lines.append(format_matrix(
        [f"a={a * 1e6:g}us" for a in atomic_costs],
        rows,
        [f"p={p}" for p in sizes],
    ))
    return "\n".join(lines)
