"""Terminal plots: render the paper's figures as ASCII charts.

The experiment runner is a CLI, so "figures" are drawn with characters:

* :func:`line_chart` -- multi-series line chart (Figures 4-7, speedup
  vs p);
* :func:`gantt_chart` -- per-PE busy timelines of one simulated run,
  the quickest way to *see* the load-balance story of Tables 2 and 3:
  simple schemes show ragged right edges (stragglers) while
  distributed schemes end almost flush.

These are deliberately dependency-free (no matplotlib offline) and
deterministic, so their output can be snapshotted in tests.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from ..simulation.metrics import SimResult

__all__ = ["line_chart", "gantt_chart"]

#: Series glyphs, assigned to series in order.
_MARKERS = "o*x+#@%&"


def _scale(
    value: float, lo: float, hi: float, cells: int
) -> int:
    """Map ``value`` in [lo, hi] to a cell row/column index."""
    if hi <= lo:
        return 0
    frac = (value - lo) / (hi - lo)
    return int(round(frac * (cells - 1)))


def line_chart(
    series: Mapping[str, Sequence[tuple[float, float]]],
    width: int = 60,
    height: int = 16,
    title: str = "",
    y_label: str = "",
) -> str:
    """Multi-series scatter/line chart over shared axes.

    ``series`` maps a name to ``(x, y)`` points.  Points are plotted
    with per-series markers and joined by linear interpolation in cell
    space; a legend line maps markers to names.
    """
    if not series:
        raise ValueError("need at least one series")
    all_pts = [pt for pts in series.values() for pt in pts]
    if not all_pts:
        raise ValueError("series contain no points")
    xs = [p[0] for p in all_pts]
    ys = [p[1] for p in all_pts]
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = min(0.0, min(ys)), max(ys)
    grid = [[" "] * width for _ in range(height)]

    def plot(col: int, row: int, ch: str) -> None:
        grid[height - 1 - row][col] = ch

    for idx, (name, pts) in enumerate(series.items()):
        marker = _MARKERS[idx % len(_MARKERS)]
        cells = [
            (_scale(x, xlo, xhi, width), _scale(y, ylo, yhi, height))
            for x, y in sorted(pts)
        ]
        # Connect consecutive points with '.' interpolation.
        for (c0, r0), (c1, r1) in zip(cells, cells[1:]):
            steps = max(abs(c1 - c0), abs(r1 - r0), 1)
            for s in range(steps + 1):
                c = round(c0 + (c1 - c0) * s / steps)
                r = round(r0 + (r1 - r0) * s / steps)
                if grid[height - 1 - r][c] == " ":
                    plot(c, r, ".")
        for c, r in cells:
            plot(c, r, marker)

    lines = []
    if title:
        lines.append(title)
    top_label = f"{yhi:.2f} {y_label}".rstrip()
    lines.append(top_label)
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    lines.append(f"{xlo:g}" + " " * max(1, width - 12) + f"{xhi:g}")
    legend = "  ".join(
        f"{_MARKERS[i % len(_MARKERS)]}={name}"
        for i, name in enumerate(series)
    )
    lines.append(legend)
    return "\n".join(lines)


def gantt_chart(
    result: SimResult,
    width: int = 72,
    until: Optional[float] = None,
) -> str:
    """ASCII Gantt chart: one row per PE, '#' while computing a chunk.

    Distinct consecutive chunks alternate '#'/'=' so chunk boundaries
    stay visible; '.' marks idle/communicating time.  The x-axis spans
    ``[0, until]`` (default ``T_p``).
    """
    horizon = float(until if until is not None else result.t_p)
    if horizon <= 0:
        return "(empty run)"
    rows = []
    for wid, metrics in enumerate(result.workers):
        cells = ["."] * width
        glyphs = "#="
        count = 0
        for c in result.chunks:
            if c.worker != wid:
                continue
            lo = int(c.assigned_at / horizon * width)
            hi = int(c.completed_at / horizon * width)
            lo = max(0, min(lo, width - 1))
            hi = max(lo + 1, min(hi, width))
            for i in range(lo, hi):
                cells[i] = glyphs[count % 2]
            count += 1
        rows.append(f"{metrics.name.rjust(8)} |" + "".join(cells))
    header = (
        f"{result.scheme}: T_p = {result.t_p:.1f}s  "
        f"('#'/'=' computing, '.' idle/comm)"
    )
    axis = " " * 9 + "+" + "-" * width
    scale = " " * 10 + "0" + " " * (width - 8) + f"{horizon:.0f}s"
    return "\n".join([header, *rows, axis, scale])
