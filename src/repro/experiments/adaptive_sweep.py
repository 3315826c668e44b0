"""Adaptive meta-scheduling vs the fixed schemes it chooses from.

The paper picks one scheme per run and its own tables show the winner
moving with the workload shape and the cluster's dedication; the
adaptive meta-scheduler (:mod:`repro.adaptive`) instead switches and
retunes *during* the loop.  This artifact quantifies the claim that
matters for such a policy: **adaptive never loses badly** -- across a
scenario matrix (clean / CPU-load spikes / full chaos plan, uniform and
peaked workloads) its makespan stays within a few percent of the best
fixed candidate *of that cell*, without knowing in advance which
candidate that is.

Every cell is an independent :class:`repro.batch.SimJob` (so ``--jobs``
fans the grid out), every adaptive run is re-audited through
:func:`repro.verify.audit_adaptive` (exactly-once tiling across scheme
switches, per-stage cut-point conformance), and the clean-cell decision
logs are printed so the report explains *why* the policy converged
where it did.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..analysis import format_matrix
from ..batch import SimJob, run_batch
from ..chaos import FaultPlan
from ..core import make
from ..simulation import ClusterSpec, simulate
from ..verify import audit_adaptive
from ..workloads import GaussianPeakWorkload, UniformWorkload
from .config import alternating_cluster

__all__ = ["FIXED_SCHEMES", "ADAPTIVE_SPEC", "sweep", "report"]

#: The fixed candidates adaptive competes against (and chooses from).
FIXED_SCHEMES: tuple[str, ...] = ("TSS", "FSS", "GSS", "TFSS")
#: The adaptive spec under test: same candidate set, ~8 stages.
ADAPTIVE_SPEC = "adaptive:TSS+FSS+GSS+TFSS@8"
DEFAULT_WORKERS = 8
DEFAULT_TOTAL = 2048
#: Scenario -> FaultPlan factory kwargs (None = fault-free).
SCENARIOS: dict[str, Optional[dict]] = {
    "clean": None,
    "spike": dict(deaths=0, delays=0, losses=0, stalls=0, spikes=3),
    "chaos": dict(),
}


def _workloads(total: int) -> dict[str, object]:
    return {
        "uniform": UniformWorkload(total, unit=100.0),
        "peak": GaussianPeakWorkload(total, amplitude=400.0, floor=50.0),
    }


def sweep(
    workers: int = DEFAULT_WORKERS,
    total: int = DEFAULT_TOTAL,
    seed: int = 0,
    n_jobs: int = 1,
) -> dict[str, dict[str, dict[str, float]]]:
    """T_p for every (workload, scenario, scheme) cell.

    Returns ``{workload: {scenario: {scheme: t_p}}}`` with the adaptive
    spec keyed as ``"adaptive"``.  Fault plans are seeded from ``seed``
    and scaled to half the clean TSS makespan of the cell's workload,
    so every scheme in a row faces the *same* fault times.
    """
    cluster = alternating_cluster(workers, 2e-4)
    wls = _workloads(total)
    schemes = list(FIXED_SCHEMES) + [ADAPTIVE_SPEC]
    jobs: list[SimJob] = []
    index: list[tuple[str, str, str]] = []
    for wl_name, wl in wls.items():
        ref = simulate("TSS", wl, cluster).t_p
        for scen, plan_kwargs in SCENARIOS.items():
            params = {}
            if plan_kwargs is not None:
                plan = FaultPlan.random(
                    seed, workers=workers, horizon=1.0, **plan_kwargs
                )
                params = {"chaos": plan.scaled(0.5 * ref)}
            for scheme in schemes:
                label = (
                    "adaptive" if scheme == ADAPTIVE_SPEC else scheme
                )
                jobs.append(SimJob(
                    scheme=scheme, workload=wl, cluster=cluster,
                    params=dict(params),
                    tag=f"adaptive-sweep/{wl_name}/{scen}/{label}",
                ))
                index.append((wl_name, scen, label))
    results = run_batch(jobs, n_jobs=n_jobs)
    out: dict[str, dict[str, dict[str, float]]] = {}
    for (wl_name, scen, label), res in zip(index, results):
        out.setdefault(wl_name, {}).setdefault(scen, {})[label] = res.t_p
    return out


def _audit_leg(
    wl, cluster: ClusterSpec, workers: int, seed: int
) -> tuple[str, list]:
    """One in-process adaptive run, fully audited; returns a verdict
    line and the decision log (batch jobs go through scheme strings,
    which do not expose the scheduler -- the audit needs it)."""
    scheduler = make(ADAPTIVE_SPEC, wl.size, workers, seed=seed)
    result = simulate(scheduler, wl, cluster)
    audit = audit_adaptive(
        result, scheduler, total=wl.size, workers=workers
    )
    verdict = (
        f"audit {'OK' if audit.ok else 'FAILED'} "
        f"({len(audit.checks)} checks"
        + (f"; {len(audit.violations)} violations" if not audit.ok
           else "")
        + ")"
    )
    return verdict, scheduler.decisions


def report(
    workers: int = DEFAULT_WORKERS,
    total: int = DEFAULT_TOTAL,
    seed: int = 0,
    n_jobs: int = 1,
) -> str:
    """The full artifact: matrix tables, loss ratios, audits, decisions."""
    grid = sweep(workers=workers, total=total, seed=seed, n_jobs=n_jobs)
    cluster = alternating_cluster(workers, 2e-4)
    schemes = list(FIXED_SCHEMES) + ["adaptive"]
    lines = [
        "adaptive-sweep -- scheme selection and retuning during the loop",
        f"  candidates {'+'.join(FIXED_SCHEMES)}, spec "
        f"{ADAPTIVE_SPEC!r}, I={total}, p={workers} "
        f"(alternating fast/slow), fault seed {seed}",
        "",
        "T_p (s) per cell; 'vs best' = adaptive / best fixed scheme of "
        "the cell",
        "(the policy does not know the cell's winner in advance)",
    ]
    worst = 0.0
    for wl_name, by_scen in grid.items():
        rows = []
        for scen in SCENARIOS:
            cell = by_scen[scen]
            best = min(cell[s] for s in FIXED_SCHEMES)
            ratio = cell["adaptive"] / best
            worst = max(worst, ratio)
            rows.append(
                [f"{cell[s]:.3f}" for s in schemes]
                + [f"{ratio:.3f}x"]
            )
        lines.append("")
        lines.append(f"workload: {wl_name}")
        lines.append(format_matrix(
            schemes + ["vs best"], rows, list(SCENARIOS),
        ))
    lines.append("")
    lines.append(
        f"worst adaptive/best-fixed ratio over the matrix: {worst:.3f}x"
    )
    lines.append("")
    lines.append("exactly-once + cut-point audits (clean cells, "
                 "in-process):")
    for wl_name, wl in _workloads(total).items():
        verdict, decisions = _audit_leg(wl, cluster, workers, seed)
        lines.append(f"  {wl_name}: {verdict}")
        for d in decisions:
            if d.kind != "select":
                continue
            reward = "" if d.reward is None else f"  r={d.reward:.3f}"
            lines.append(
                f"    stage {d.stage}: [{d.base}, {d.base + d.size}) "
                f"{d.summary()}{reward}"
            )
    return "\n".join(lines)
