"""Tests for the ASCII chart renderers."""

from __future__ import annotations

import pytest

from repro.analysis import line_chart


class TestLineChart:
    def test_basic_render(self):
        chart = line_chart(
            {"A": [(1, 1.0), (2, 2.0), (4, 3.0)],
             "B": [(1, 0.5), (2, 1.0), (4, 1.5)]},
            width=40,
            height=10,
            title="demo",
        )
        lines = chart.splitlines()
        assert lines[0] == "demo"
        assert any("o" in line for line in lines)  # series A marker
        assert any("*" in line for line in lines)  # series B marker
        assert "o=A" in lines[-1] and "*=B" in lines[-1]

    def test_plot_area_dimensions(self):
        chart = line_chart({"A": [(0, 0.0), (1, 1.0)]}, width=30,
                           height=8)
        rows = [line for line in chart.splitlines()
                if line.startswith("|")]
        assert len(rows) == 8
        assert all(len(r) == 31 for r in rows)

    def test_single_point(self):
        chart = line_chart({"A": [(1, 5.0)]})
        assert "o" in chart

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            line_chart({})
        with pytest.raises(ValueError):
            line_chart({"A": []})

    def test_monotone_series_rises_left_to_right(self):
        chart = line_chart({"A": [(0, 0.0), (10, 10.0)]}, width=20,
                           height=10)
        rows = [line[1:] for line in chart.splitlines()
                if line.startswith("|")]
        first_col = [r[0] for r in rows]
        last_col = [r[-1] for r in rows]
        # Marker at bottom-left and top-right.
        assert first_col[-1] == "o"
        assert last_col[0] == "o"
