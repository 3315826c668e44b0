"""Post-hoc analysis: chunk traces (Table 1), balance metrics,
speedup series (Figures 4-7), and paper-layout text tables."""

from .balance import balance_report, cov, max_over_mean, range_over_mean
from .chunks import (
    ChunkStats,
    chunk_sequence,
    chunk_stats,
    table1_rows,
)
from .plots import gantt_chart, line_chart
from .speedup import SpeedupPoint, efficiency, power_cap, speedup_series
from .tables import (
    format_chunk_row,
    format_matrix,
    format_time_table,
)
from .theory import (
    css_steps,
    fiss_steps,
    fss_steps,
    gss_steps,
    predicted_steps,
    tfss_steps,
    tss_executable_steps,
    tss_planned_steps,
)

__all__ = [
    "cov",
    "max_over_mean",
    "range_over_mean",
    "balance_report",
    "chunk_sequence",
    "ChunkStats",
    "chunk_stats",
    "table1_rows",
    "SpeedupPoint",
    "speedup_series",
    "power_cap",
    "efficiency",
    "format_time_table",
    "format_matrix",
    "format_chunk_row",
    "line_chart",
    "gantt_chart",
    "css_steps",
    "gss_steps",
    "tss_planned_steps",
    "tss_executable_steps",
    "fss_steps",
    "fiss_steps",
    "tfss_steps",
    "predicted_steps",
]
