"""Tests for chunk analytics, the speedup cap, and tables."""

from __future__ import annotations

import pytest

from repro.analysis import (
    chunk_sequence,
    format_chunk_row,
    format_matrix,
    format_time_table,
    power_cap,
    table1_rows,
)
from repro.simulation import simulate
from repro.workloads import UniformWorkload

from tests.conftest import make_cluster


class TestChunkAnalytics:
    def test_chunk_sequence_matches_drain(self):
        assert chunk_sequence("CSS(10)", 35, 2) == [10, 10, 10, 5]

    def test_table1_has_all_schemes(self):
        rows = table1_rows()
        assert set(rows) == {"S", "SS", "GSS", "TSS", "FSS", "FISS",
                             "TFSS"}

    @pytest.mark.parametrize("rounding", ["half-even", "ceil", "floor"])
    def test_fss_rounding_modes_agree_on_scale(self, rounding):
        # Every mode covers the loop, in chunk counts within a couple
        # of stages of each other.
        sizes = chunk_sequence("FSS", 100_000, 8, rounding=rounding)
        assert sum(sizes) == 100_000
        assert len(sizes) < 200


class TestSpeedup:
    def test_power_cap_paper_mix(self):
        # 3 fast (3x) + 5 slow -> 14/3 ~= 4.67 (Figure 6's bound).
        assert power_cap([3.0] * 3 + [1.0] * 5) == pytest.approx(
            14.0 / 3.0
        )

    def test_power_cap_explicit_base(self):
        assert power_cap([2.0, 1.0], fast=1.0) == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            power_cap([])
        with pytest.raises(ValueError):
            power_cap([1.0, 0.0])


class TestTables:
    def test_format_matrix_alignment(self):
        text = format_matrix(
            headers=["A", "B"],
            rows=[["1", "22"], ["333", "4"]],
            row_labels=["x", "y"],
        )
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert len(set(len(line) for line in lines[2:])) == 1

    def test_format_matrix_validation(self):
        with pytest.raises(ValueError):
            format_matrix(["A"], [["1", "2"]], ["x"])
        with pytest.raises(ValueError):
            format_matrix(["A"], [["1"]], ["x", "y"])

    def test_format_time_table_matches_paper_layout(self):
        wl = UniformWorkload(100)
        cluster = make_cluster()
        results = {
            "TSS": simulate("TSS", wl, cluster),
            "FSS": simulate("FSS", wl, make_cluster()),
        }
        text = format_time_table(results)
        assert "T_p" in text
        assert "TSS" in text and "FSS" in text
        # One row per PE plus header, rule and T_p.
        assert len(text.splitlines()) == cluster.size + 3

    def test_format_time_table_rejects_mismatched(self):
        wl = UniformWorkload(50)
        results = {
            "A": simulate("TSS", wl, make_cluster(n_fast=1, n_slow=1)),
            "B": simulate("TSS", wl, make_cluster(n_fast=2, n_slow=2)),
        }
        with pytest.raises(ValueError):
            format_time_table(results)
        with pytest.raises(ValueError):
            format_time_table({})

    def test_format_chunk_row_wraps(self):
        text = format_chunk_row(list(range(30)), per_line=10)
        assert len(text.splitlines()) == 3
        assert format_chunk_row([]) == "(empty)"
