"""Post-hoc analysis: chunk traces (Table 1), the speedup cap
(Figures 4-7), and paper-layout text tables."""

from .chunks import (
    ChunkStats,
    chunk_sequence,
    chunk_stats,
    table1_rows,
)
from .plots import gantt_chart, line_chart
from .speedup import power_cap
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
    "chunk_sequence",
    "ChunkStats",
    "chunk_stats",
    "table1_rows",
    "power_cap",
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
