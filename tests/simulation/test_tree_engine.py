"""Integration tests for the TreeS discrete-event engine."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.simulation import SimulationError, simulate_tree
from repro.workloads import UniformWorkload

from tests.conftest import make_cluster


class TestCompletion:
    def test_all_iterations_computed(self, reordered_mandelbrot,
                                     hetero_cluster):
        result = simulate_tree(reordered_mandelbrot, hetero_cluster)
        assert result.total_iterations == reordered_mandelbrot.size

    def test_results_reproduce_serial(self, reordered_mandelbrot,
                                      hetero_cluster):
        result = simulate_tree(
            reordered_mandelbrot, hetero_cluster, collect_results=True
        )
        serial = reordered_mandelbrot.execute_serial()
        np.testing.assert_array_equal(
            np.asarray(result.results).reshape(serial.shape), serial
        )

    def test_empty_loop(self, hetero_cluster):
        result = simulate_tree(UniformWorkload(0), hetero_cluster)
        assert result.t_p == 0.0

    def test_single_worker_no_partners(self):
        cluster = make_cluster(n_fast=1, n_slow=0)
        result = simulate_tree(UniformWorkload(40), cluster)
        assert result.total_iterations == 40

    def test_fewer_iterations_than_workers(self, hetero_cluster):
        result = simulate_tree(UniformWorkload(2), hetero_cluster)
        assert result.total_iterations == 2


class TestStealing:
    def test_steals_happen_on_heterogeneous_cluster(
        self, uniform_workload
    ):
        # Even allocation on a 3x-heterogeneous cluster forces the fast
        # PEs to steal from the slow ones.
        cluster = make_cluster(n_fast=2, n_slow=2)
        result = simulate_tree(uniform_workload, cluster)
        assert result.rederivations > 0  # steal counter

    def test_weighted_allocation_reduces_steals(self, uniform_workload):
        cluster = make_cluster(n_fast=2, n_slow=2)
        even = simulate_tree(uniform_workload, cluster, weighted=False)
        weighted = simulate_tree(
            uniform_workload, cluster, weighted=True
        )
        assert weighted.rederivations <= even.rederivations

    def test_stealing_improves_makespan_vs_static(
        self, uniform_workload
    ):
        from repro.simulation import simulate

        cluster = make_cluster(n_fast=2, n_slow=2)
        static = simulate("S", uniform_workload, cluster)
        tree = simulate_tree(uniform_workload, cluster)
        assert tree.t_p < static.t_p

    def test_fast_workers_end_up_with_more_iterations(
        self, uniform_workload
    ):
        cluster = make_cluster(n_fast=1, n_slow=1)
        result = simulate_tree(uniform_workload, cluster)
        fast, slow = result.workers
        assert fast.iterations > slow.iterations


class TestFlushing:
    def test_flush_interval_affects_tp(self, uniform_workload):
        cluster = make_cluster()
        fine = simulate_tree(
            uniform_workload, cluster, flush_interval=0.05
        )
        coarse = simulate_tree(
            uniform_workload, cluster, flush_interval=50.0
        )
        # Epoch flushing: a huge interval delays the final results.
        assert coarse.t_p > fine.t_p

    def test_com_time_positive(self, reordered_mandelbrot,
                               hetero_cluster):
        result = simulate_tree(reordered_mandelbrot, hetero_cluster)
        assert all(w.t_com > 0 for w in result.workers)


class TestValidationAndDeterminism:
    def test_bad_parameters(self, uniform_workload, hetero_cluster):
        with pytest.raises(SimulationError):
            simulate_tree(uniform_workload, hetero_cluster,
                          flush_interval=0.0)
        with pytest.raises(SimulationError):
            simulate_tree(uniform_workload, hetero_cluster, grain=0)
        with pytest.raises(SimulationError):
            simulate_tree(uniform_workload, hetero_cluster, min_steal=1)

    @pytest.mark.parametrize(
        "interval", [math.nan, math.inf, 0.0, -1.0],
        ids=["nan", "inf", "zero", "negative"],
    )
    def test_flush_interval_must_be_finite_and_positive(self, interval):
        # NaN and inf used to pass the check and die mid-run in
        # ``_next_epoch``'s floor.
        cluster = make_cluster(n_fast=1, n_slow=2)
        with pytest.raises(SimulationError, match="flush_interval"):
            simulate_tree(UniformWorkload(50), cluster,
                          flush_interval=interval)

    def test_deterministic(self, peak_workload):
        a = simulate_tree(peak_workload, make_cluster(), grain=4)
        b = simulate_tree(peak_workload, make_cluster(), grain=4)
        assert a.t_p == b.t_p
        assert a.rederivations == b.rederivations

    def test_grain_does_not_change_totals(self, peak_workload,
                                          hetero_cluster):
        for grain in (1, 4, 16):
            result = simulate_tree(
                peak_workload, hetero_cluster, grain=grain
            )
            assert result.total_iterations == peak_workload.size
