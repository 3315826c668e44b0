"""Ablation experiments over the design knobs DESIGN.md calls out.

Each sweep returns structured rows and has a ``report()`` twin that
renders a text table; the CLI exposes them as
``repro-experiments ablations``; ``tests/experiments/test_extensions.py``
holds the shape each sweep shows.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from ..analysis import format_matrix
from ..batch import SimJob, run_batch
from ..core.acp import AcpModel
from ..simulation import SimResult
from ..workloads import MandelbrotWorkload, ReorderedWorkload, Workload
from .config import overload_pattern, paper_cluster, paper_workload

__all__ = [
    "AblationRow",
    "acp_scale_sweep",
    "sampling_sweep",
    "css_chunk_sweep",
    "alpha_sweep",
    "master_service_sweep",
    "report",
]


@dataclasses.dataclass(frozen=True)
class AblationRow(object):
    """One sweep point: the knob value and the run outcomes."""

    knob: str
    value: object
    t_p: float
    chunks: int
    imbalance: float
    idle_pes: int = 0

    def cells(self) -> list[str]:
        return [
            f"{self.t_p:.1f}",
            str(self.chunks),
            f"{self.imbalance:.2f}",
            str(self.idle_pes),
        ]


def _row(knob: str, value: object, result: SimResult) -> AblationRow:
    return AblationRow(
        knob=knob,
        value=value,
        t_p=result.t_p,
        chunks=result.total_chunks,
        imbalance=result.comp_imbalance(),
        idle_pes=sum(1 for w in result.workers if w.iterations == 0),
    )


def _sweep(
    knob: str,
    jobs: Sequence[tuple[object, SimJob]],
    n_jobs: int = 1,
) -> list[AblationRow]:
    """Run one sweep's (value, job) grid through the batch layer."""
    results = run_batch([job for _v, job in jobs], n_jobs=n_jobs)
    return [
        _row(knob, value, result)
        for (value, _job), result in zip(jobs, results)
    ]


def acp_scale_sweep(
    workload: Optional[Workload] = None,
    scales: Sequence[int] = (1, 10, 100),
    n_jobs: int = 1,
) -> list[AblationRow]:
    """Paper Sec. 5.2-I: the ACP scaling constant, under overload.

    ``scale=1`` is classic DTSS (integer division): the overloaded slow
    PEs floor to ACP 0 and idle.  ``scale=10`` (the paper's fix) uses
    the whole cluster.  Very large scales make ``A`` comparable to
    ``I`` and collapse chunk granularity.
    """
    wl = workload or paper_workload(width=1000, height=500)
    jobs = [
        (scale, SimJob(
            scheme="DTSS", workload=wl,
            cluster=paper_cluster(wl, overloaded=overload_pattern(8)),
            params=dict(acp_model=AcpModel(scale=scale)),
            tag=f"ablation/acp_scale={scale}",
        ))
        for scale in scales
    ]
    return _sweep("acp_scale", jobs, n_jobs=n_jobs)


def sampling_sweep(
    width: int = 1000,
    height: int = 500,
    sfs: Sequence[int] = (1, 2, 4, 8, 16),
    scheme: str = "TSS",
    n_jobs: int = 1,
) -> list[AblationRow]:
    """Paper Sec. 2.1: the loop-reordering sampling frequency."""
    inner = MandelbrotWorkload(width, height, max_iter=64)
    inner.costs()
    jobs = []
    for sf in sfs:
        wl = ReorderedWorkload(inner, sf=sf) if sf > 1 else inner
        jobs.append((sf, SimJob(
            scheme=scheme, workload=wl, cluster=paper_cluster(wl),
            tag=f"ablation/sf={sf}",
        )))
    return _sweep("S_f", jobs, n_jobs=n_jobs)


def css_chunk_sweep(
    workload: Optional[Workload] = None,
    ks: Sequence[int] = (1, 4, 16, 64, 256),
    n_jobs: int = 1,
) -> list[AblationRow]:
    """CSS's k: the communication/imbalance trade-off (paper Sec. 2.2)."""
    wl = workload or paper_workload(width=1000, height=500)
    jobs = [
        (k, SimJob(
            scheme=f"CSS({k})", workload=wl, cluster=paper_cluster(wl),
            tag=f"ablation/k={k}",
        ))
        for k in ks
    ]
    return _sweep("k", jobs, n_jobs=n_jobs)


def alpha_sweep(
    workload: Optional[Workload] = None,
    alphas: Sequence[float] = (1.5, 2.0, 3.0, 4.0),
    n_jobs: int = 1,
) -> list[AblationRow]:
    """FSS's alpha: stage shrink factor (2.0 is Hummel's suboptimal
    robust choice, which the paper adopts)."""
    wl = workload or paper_workload(width=1000, height=500)
    jobs = [
        (alpha, SimJob(
            scheme="FSS", workload=wl, cluster=paper_cluster(wl),
            params=dict(alpha=alpha), tag=f"ablation/alpha={alpha}",
        ))
        for alpha in alphas
    ]
    return _sweep("alpha", jobs, n_jobs=n_jobs)


def master_service_sweep(
    workload: Optional[Workload] = None,
    services_ms: Sequence[float] = (0.1, 1.0, 10.0, 100.0),
    scheme: str = "GSS",
    n_jobs: int = 1,
) -> list[AblationRow]:
    """Master request-service time: the contention behind the p=2 dip."""
    wl = workload or paper_workload(width=1000, height=500)
    jobs = []
    for ms in services_ms:
        cluster = paper_cluster(wl)
        cluster.master_service = ms / 1000.0
        jobs.append((ms, SimJob(
            scheme=scheme, workload=wl, cluster=cluster,
            tag=f"ablation/service_ms={ms}",
        )))
    return _sweep("service_ms", jobs, n_jobs=n_jobs)


def report(workload: Optional[Workload] = None, n_jobs: int = 1) -> str:
    """All sweeps, rendered as text tables."""
    wl = workload or paper_workload(width=1000, height=500)
    sections = [
        ("ACP scale (DTSS, nondedicated) -- paper Sec. 5.2-I",
         acp_scale_sweep(wl, n_jobs=n_jobs)),
        ("Sampling frequency S_f (TSS)", sampling_sweep(n_jobs=n_jobs)),
        ("CSS chunk size k", css_chunk_sweep(wl, n_jobs=n_jobs)),
        ("FSS alpha", alpha_sweep(wl, n_jobs=n_jobs)),
        ("Master service time (GSS)",
         master_service_sweep(wl, n_jobs=n_jobs)),
    ]
    parts = []
    headers = ["T_p (s)", "chunks", "imbalance", "idle PEs"]
    for title, rows in sections:
        parts.append(title)
        parts.append(
            format_matrix(
                headers,
                [r.cells() for r in rows],
                [f"{r.knob}={r.value}" for r in rows],
            )
        )
        parts.append("")
    return "\n".join(parts)
