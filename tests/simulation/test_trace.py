"""Tests for the Gantt renderer of a simulated run's chunk trace."""

from __future__ import annotations

from repro.analysis import gantt_chart
from repro.simulation import simulate
from repro.workloads import UniformWorkload

from tests.conftest import make_cluster


def run_once():
    return simulate("TSS", UniformWorkload(120), make_cluster())


class TestGantt:
    def test_one_row_per_worker(self):
        result = run_once()
        chart = gantt_chart(result, width=40)
        rows = [line for line in chart.splitlines() if "|" in line]
        assert len(rows) == 4

    def test_busy_cells_present(self):
        result = run_once()
        chart = gantt_chart(result)
        assert "#" in chart

    def test_respects_width(self):
        result = run_once()
        chart = gantt_chart(result, width=30)
        rows = [line for line in chart.splitlines() if "|" in line]
        assert all(len(r.split("|")[1]) == 30 for r in rows)

    def test_empty_run(self):
        result = simulate("TSS", UniformWorkload(0), make_cluster())
        assert gantt_chart(result) == "(empty run)"

    def test_straggler_visible(self):
        # A static split on a heterogeneous pair: the slow PE's row is
        # busy to the right edge, the fast one idles there.
        result = simulate(
            "S", UniformWorkload(100), make_cluster(n_fast=1, n_slow=1)
        )
        chart = gantt_chart(result, width=40)
        fast_row, slow_row = [
            line.split("|")[1]
            for line in chart.splitlines()
            if "|" in line
        ]
        assert slow_row.rstrip(".")[-1] in "#="
        assert fast_row.endswith(".")
