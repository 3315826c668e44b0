"""Tests for the experiment modules: every paper artifact regenerates
and satisfies its shape claims (at reduced scale for speed)."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.experiments import (
    figures,
    overload_pattern,
    paper_cluster,
    paper_workload,
    speedup_configuration,
    table1,
    table2,
    table3,
)
from repro.experiments.runner import build_parser, main


@pytest.fixture(scope="module")
def small_paper_workload():
    # A quarter of the paper's window; cluster calibration keeps the
    # paper's timescale and communication balance.  (Much smaller
    # windows make single-run rankings noisy: chunk counts shrink and
    # one unlucky chunk placement reorders the close schemes.)
    return paper_workload(width=1000, height=500)


class TestTable1:
    def test_rows_match_paper_exactly(self):
        rows = table1.run()
        for scheme, expected in table1.PAPER_TABLE1.items():
            assert rows[scheme][: len(expected)] == expected, scheme

    def test_report_marks_matches(self):
        text = table1.report()
        assert "DIFFERS" not in text
        assert text.count("MATCH") == len(table1.PAPER_TABLE1)

    def test_alternate_problem_size(self):
        rows = table1.run(total=500, workers=2)
        assert sum(rows["S"]) == 500


class TestPaperCluster:
    def test_calibration(self, small_paper_workload):
        cluster = paper_cluster(small_paper_workload,
                                serial_seconds=60.0)
        fast = cluster.nodes[0]
        assert small_paper_workload.total_cost() / fast.speed == \
            pytest.approx(60.0)

    def test_machine_mix(self, small_paper_workload):
        cluster = paper_cluster(small_paper_workload)
        names = [n.name for n in cluster.nodes]
        assert sum(1 for n in names if n.startswith("fast")) == 3
        assert sum(1 for n in names if n.startswith("slow")) == 5

    def test_speed_ratio(self, small_paper_workload):
        cluster = paper_cluster(small_paper_workload)
        speeds = [n.speed for n in cluster.nodes]
        assert speeds[0] / speeds[-1] == pytest.approx(3.0)

    def test_overload_sets_run_queue(self, small_paper_workload):
        cluster = paper_cluster(
            small_paper_workload, overloaded=(0, 3)
        )
        assert cluster.nodes[0].load.q_at(0) > 1
        assert cluster.nodes[1].load.q_at(0) == 1
        assert cluster.nodes[3].load.q_at(0) > 1

    def test_result_volume_is_paper_equivalent(
        self, small_paper_workload
    ):
        cluster = paper_cluster(small_paper_workload)
        total_bytes = (
            cluster.result_bytes_per_item * small_paper_workload.size
        )
        assert total_bytes == pytest.approx(4000 * 2000 * 4.0)

    def test_overload_pattern_known_ps(self):
        assert overload_pattern(1) == (0,)
        assert len(overload_pattern(8)) == 4
        with pytest.raises(ValueError):
            overload_pattern(3)

    def test_speedup_configuration_mixes(self, small_paper_workload):
        for p in (1, 2, 4, 8):
            cluster = speedup_configuration(small_paper_workload, p)
            assert cluster.size == p


class TestTable2Shapes:
    def test_dedicated_shape(self, small_paper_workload):
        results = table2.run(workload=small_paper_workload,
                             dedicated=True)
        assert set(results) == set(table2.SCHEMES)
        # Paper claim: TSS performs best among the master-driven simple
        # schemes, and FISS worst (many tiny chunks vs stage tail).
        master = {k: v.t_p for k, v in results.items()
                  if k != "TreeS"}
        assert min(master, key=master.get) in ("TSS", "TFSS")
        # Every scheme completed the full loop.
        for res in results.values():
            assert res.total_iterations == small_paper_workload.size

    def test_nondedicated_slower_than_dedicated(
        self, small_paper_workload
    ):
        ded = table2.run(workload=small_paper_workload, dedicated=True)
        non = table2.run(workload=small_paper_workload,
                         dedicated=False)
        for scheme in ("TSS", "FSS", "TFSS"):
            assert non[scheme].t_p > ded[scheme].t_p


class TestTable3Shapes:
    def test_distributed_beats_simple(self, small_paper_workload):
        simple = table2.run(workload=small_paper_workload,
                            dedicated=True)
        dist = table3.run(workload=small_paper_workload,
                          dedicated=True)
        pairs = [("TSS", "DTSS"), ("FSS", "DFSS"),
                 ("FISS", "DFISS"), ("TFSS", "DTFSS")]
        wins = sum(
            dist[d].t_p < simple[s].t_p for s, d in pairs
        )
        assert wins >= 3  # the paper's headline result

    def test_distributed_balances_comp(self, small_paper_workload):
        dist = table3.run(workload=small_paper_workload,
                          dedicated=True)
        simple = table2.run(workload=small_paper_workload,
                            dedicated=True)
        # Paper: "the execution is well-balanced, in terms of the
        # computation times" for the distributed schemes.
        assert dist["DTSS"].comp_imbalance() \
            < simple["TSS"].comp_imbalance()

    def test_dtss_best_distributed(self, small_paper_workload):
        dist = table3.run(workload=small_paper_workload,
                          dedicated=False)
        master = {k: v.t_p for k, v in dist.items() if k != "TreeS"}
        best = min(master, key=master.get)
        assert best in ("DTSS", "DTFSS")


class TestTableGolden:
    """Tables 2-3 ``T_p`` as a regression oracle (ROADMAP aim 3).

    ``golden_tables.json`` was generated at the parent of the commit
    that merged ``table2``/``table3`` into one builder; the simulator
    is deterministic, so equality is exact.
    """

    @pytest.mark.parametrize("dedicated", [True, False])
    @pytest.mark.parametrize("table", [table2, table3])
    def test_t_p_matches_golden(
        self, small_paper_workload, table, dedicated
    ):
        path = os.path.join(
            os.path.dirname(__file__), "golden_tables.json"
        )
        with open(path, "r", encoding="utf-8") as handle:
            golden = json.load(handle)
        name = table.__name__.rsplit(".", 1)[-1]
        results = table.run(
            workload=small_paper_workload, dedicated=dedicated
        )
        assert {s: r.t_p for s, r in results.items()} \
            == golden[name]["ded" if dedicated else "nonded"]


@pytest.fixture(scope="module")
def speedup_figures(small_paper_workload):
    """Figures 4-7 by number, computed once for the module."""
    return {
        n: getattr(figures, f"figure{n}")(workload=small_paper_workload)
        for n in (4, 5, 6, 7)
    }


class TestFigures:
    def test_figure1_profiles(self):
        data = figures.figure1(width=200, height=200, sf=4)
        orig, reord = data["original"], data["reordered"]
        assert orig.shape == reord.shape == (200,)
        # Same multiset of costs, different order.
        np.testing.assert_allclose(np.sort(orig), np.sort(reord))
        assert not np.array_equal(orig, reord)
        # Figure 1's content: the profile is strongly irregular, and
        # reordering flattens its worst window of an eighth of the
        # columns toward the mean (~1.45x at any window size).
        assert orig.max() > 3 * orig.min()

        def worst_window(v, w=25):
            sums = np.convolve(v, np.ones(w), mode="valid")
            return sums.max() / (v.mean() * w)

        assert worst_window(orig) / worst_window(reord) > 1.0

    def test_figure2_ascii(self):
        art = figures.figure2_ascii(width=40, height=16)
        assert len(art.splitlines()) == 16

    def test_speedup_figure_shapes(self, speedup_figures):
        for n, schemes in ((4, figures.SIMPLE), (6, figures.DISTRIBUTED)):
            fig = speedup_figures[n]
            assert set(fig.series) == set(schemes)
            for scheme, points in fig.series.items():
                ps = [p for p, _t, _s in points]
                assert ps == [1, 2, 4, 8]
                speedups = [s for _p, _t, s in points]
                # Speedup grows from p=1 to p=8 and respects the power
                # cap (generous tolerance: T_p includes communication).
                assert speedups[-1] > speedups[0], (n, scheme)
                assert speedups[-1] <= fig.cap + 0.5, (n, scheme)
            assert f"Figure {n}" in fig.report()

    def test_nondedicated_speedups_never_beat_dedicated(
        self, speedup_figures
    ):
        ded, non = speedup_figures[4], speedup_figures[5]
        for scheme, points in non.series.items():
            assert points[-1][2] <= ded.series[scheme][-1][2] + 1e-9

    def test_dtss_scales_best_nondedicated(self, speedup_figures):
        # "The DTSS scales the best" (Fig. 7): within 10% of the best
        # master-driven distributed scheme at p = 8.
        finals = {
            name: pts[-1][2]
            for name, pts in speedup_figures[7].series.items()
            if name != "TreeS"
        }
        assert finals["DTSS"] >= 0.9 * max(finals.values())

    def test_distributed_scale_better_than_simple(self, speedup_figures):
        f4, f6 = speedup_figures[4], speedup_figures[6]
        simple_best = max(
            pts[-1][2] for name, pts in f4.series.items()
            if name != "TreeS"
        )
        dist_best = max(
            pts[-1][2] for name, pts in f6.series.items()
            if name != "TreeS"
        )
        assert dist_best > simple_best


class TestRunnerCli:
    def test_parser_choices(self):
        parser = build_parser()
        args = parser.parse_args(["table1"])
        assert args.experiment == "table1"

    def test_main_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "MATCH" in out

    def test_main_table2_small(self, capsys):
        assert main(["table2", "--width", "200", "--height",
                     "100"]) == 0
        out = capsys.readouterr().out
        assert "T_p" in out

    def test_main_fig1(self, capsys):
        assert main(["fig1", "--width", "200", "--height", "100"]) == 0
        assert "Figure 1" in capsys.readouterr().out
