"""Fixed-width text tables in the paper's layout.

Tables 2 and 3 tabulate, per slave PE, ``T_com/T_wait/T_comp`` with a
final ``T_p`` row, one column per scheme.  :func:`format_time_table`
renders exactly that shape from :class:`~repro.simulation.SimResult`
objects so experiment output is visually comparable with the paper.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..simulation.metrics import SimResult


__all__ = ["format_time_table", "format_matrix", "format_chunk_row"]


def format_matrix(
    headers: Sequence[str],
    rows: Sequence[Sequence[str]],
    row_labels: Sequence[str],
    corner: str = "",
) -> str:
    """Generic fixed-width table with a label column."""
    if any(len(r) != len(headers) for r in rows):
        raise ValueError("every row must have one cell per header")
    if len(rows) != len(row_labels):
        raise ValueError("need one label per row")
    cells = [[corner, *headers]] + [
        [label, *row] for label, row in zip(row_labels, rows)
    ]
    widths = [
        max(len(line[col]) for line in cells)
        for col in range(len(headers) + 1)
    ]
    out = []
    for i, line in enumerate(cells):
        out.append(
            "  ".join(cell.rjust(w) for cell, w in zip(line, widths))
        )
        if i == 0:
            out.append("-" * len(out[0]))
    return "\n".join(out)


def format_time_table(results: Mapping[str, SimResult]) -> str:
    """The paper's Table 2/3 layout: PE rows x scheme columns.

    Each cell is ``T_com/T_wait/T_comp`` (seconds, 1 decimal); the last
    row is ``T_p`` per scheme.
    """
    if not results:
        raise ValueError("no results to tabulate")
    schemes = list(results)
    n_pe = {len(r.workers) for r in results.values()}
    if len(n_pe) != 1:
        raise ValueError(f"inconsistent PE counts across schemes: {n_pe}")
    count = n_pe.pop()
    rows = []
    labels = []
    for pe in range(count):
        labels.append(str(pe + 1))
        rows.append(
            [results[s].workers[pe].row() for s in schemes]
        )
    labels.append("T_p")
    rows.append([f"{results[s].t_p:.1f}" for s in schemes])
    return format_matrix(schemes, rows, labels, corner="PE")


def format_chunk_row(sizes: Sequence[int], per_line: int = 14) -> str:
    """Render a chunk-size row Table-1 style, wrapped."""
    parts = [str(s) for s in sizes]
    lines = [
        " ".join(parts[i:i + per_line])
        for i in range(0, len(parts), per_line)
    ]
    return "\n".join(lines) if lines else "(empty)"
