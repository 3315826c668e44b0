"""Experiment T2: the paper's Table 2 -- simple schemes at p = 8.

Runs TSS, FSS, FISS, TFSS and TreeS on the 3-fast + 5-slow cluster,
dedicated and nondedicated, and tabulates per-PE
``T_com/T_wait/T_comp`` plus ``T_p`` in the paper's layout.

Expected shape (paper Sec. 5.1): the simple schemes treat all PEs as
equal, so on the heterogeneous cluster "the execution is not
well-balanced" -- fast PEs idle (big ``T_wait``) while slow PEs carry
equal-sized chunks; TSS posts the best ``T_p``.

:class:`TimeTable` is the builder Tables 2 and 3 share: same cluster,
same layout; a table is its scheme columns, the TreeS allocation and
the parameters of the master-driven columns.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping, Optional

from ..analysis import format_time_table
from ..batch import SimJob, run_batch
from ..simulation import SimResult
from ..workloads import Workload
from .config import overload_pattern, paper_cluster, paper_workload

__all__ = ["TimeTable", "SCHEMES", "jobs", "run", "report"]


@dataclasses.dataclass(frozen=True)
class TimeTable(object):
    """One of the paper's per-PE time tables at p = 8."""

    number: int
    title: str
    schemes: tuple[str, ...]
    #: TreeS initial allocation: even blocks for the simple test
    #: (paper Sec. 5.1), virtual-power-weighted for the distributed
    #: one (Sec. 6.1).
    weighted_tree: bool
    #: scheme parameters of every non-TreeS column
    params: Mapping[str, Any] = dataclasses.field(default_factory=dict)

    def jobs(
        self,
        workload: Workload,
        dedicated: bool = True,
        serial_seconds: float = 60.0,
    ) -> list[SimJob]:
        """One :class:`SimJob` per column, in column order."""
        overloaded = () if dedicated else overload_pattern(8)
        cluster = paper_cluster(
            workload, overloaded=overloaded, serial_seconds=serial_seconds
        )
        tag = f"table{self.number}/" + ("ded" if dedicated else "nonded")
        out = []
        for scheme in self.schemes:
            if scheme == "TreeS":
                out.append(SimJob(
                    scheme=scheme, workload=workload, cluster=cluster,
                    engine="tree", tag=tag,
                    params=dict(weighted=self.weighted_tree, grain=8),
                ))
            else:
                out.append(SimJob(
                    scheme=scheme, workload=workload, cluster=cluster,
                    params=dict(self.params), tag=tag,
                ))
        return out

    def run(
        self,
        workload: Optional[Workload] = None,
        dedicated: bool = True,
        width: int = 4000,
        height: int = 2000,
        serial_seconds: float = 60.0,
        n_jobs: int = 1,
    ) -> dict[str, SimResult]:
        """Simulate every column; returns scheme -> result."""
        wl = workload or paper_workload(width=width, height=height)
        batch = self.jobs(
            wl, dedicated=dedicated, serial_seconds=serial_seconds
        )
        return dict(zip(self.schemes, run_batch(batch, n_jobs=n_jobs)))

    def report(self, **kwargs) -> str:
        """Both halves of the table as text."""
        parts = []
        # Build the (cost-cached) workload once for both halves.
        if kwargs.get("workload") is None:
            kwargs = dict(kwargs)
            kwargs["workload"] = paper_workload(
                width=kwargs.pop("width", 4000),
                height=kwargs.pop("height", 2000),
            )
        for dedicated in (True, False):
            results = self.run(dedicated=dedicated, **kwargs)
            half = "Dedicated" if dedicated else "NonDedicated"
            parts.append(
                f"Table {self.number} -- {self.title}, p = 8 ({half}); "
                "cells are T_com/T_wait/T_comp (s)"
            )
            parts.append(format_time_table(results))
            parts.append("")
        return "\n".join(parts)


_TABLE = TimeTable(
    2, "Simple schemes", ("TSS", "FSS", "FISS", "TFSS", "TreeS"),
    weighted_tree=False,
)
SCHEMES, jobs, run, report = (
    _TABLE.schemes, _TABLE.jobs, _TABLE.run, _TABLE.report,
)
