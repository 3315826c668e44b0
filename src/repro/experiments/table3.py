"""Experiment T3: the paper's Table 3 -- distributed schemes at p = 8.

Runs DTSS, DFSS, DFISS, DTFSS and weighted TreeS on the same cluster as
Table 2.  Expected shape (paper Sec. 6.1): "the execution is
well-balanced, in terms of the computation times" and the
communication/waiting times drop sharply versus the simple schemes;
DTSS posts the best ``T_p``, DFISS second in the nondedicated case.
"""

from __future__ import annotations

from ..core.acp import IMPROVED_ACP
from .table2 import TimeTable

__all__ = ["SCHEMES", "jobs", "run", "report"]

_TABLE = TimeTable(
    3, "Distributed schemes", ("DTSS", "DFSS", "DFISS", "DTFSS", "TreeS"),
    weighted_tree=True, params=dict(acp_model=IMPROVED_ACP),
)
SCHEMES, jobs, run, report = (
    _TABLE.schemes, _TABLE.jobs, _TABLE.run, _TABLE.report,
)
