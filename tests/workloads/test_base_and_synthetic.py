"""Tests for the Workload protocol and the Sec. 2.1 synthetic loops."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.workloads import (
    ConditionalWorkload,
    GaussianPeakWorkload,
    LinearWorkload,
    RandomWorkload,
    UniformWorkload,
    WorkloadError,
)


class TestProtocol:
    def test_cost_caching_and_prefix_sums(self, uniform_workload):
        wl = uniform_workload
        assert wl.cost(0) == 5.0
        assert wl.chunk_cost(0, 10) == 50.0
        assert wl.chunk_cost(10, 10) == 0.0
        assert wl.total_cost() == 1000.0

    def test_chunk_cost_matches_sum(self, peak_workload):
        wl = peak_workload
        costs = wl.costs()
        assert wl.chunk_cost(17, 105) == pytest.approx(
            costs[17:105].sum()
        )

    def test_out_of_range_rejected(self, uniform_workload):
        with pytest.raises(WorkloadError):
            uniform_workload.cost(200)
        with pytest.raises(WorkloadError):
            uniform_workload.chunk_cost(-1, 5)
        with pytest.raises(WorkloadError):
            uniform_workload.chunk_cost(5, 201)

    @pytest.mark.parametrize("bad", [
        float("nan"), float("inf"), float("-inf"), -1.0,
    ])
    def test_injected_costs_must_be_finite_and_non_negative(self, bad):
        # A caller's own vector enters through ``TraceWorkload``; one
        # bad entry anywhere in it is refused where it is supplied.
        from repro.workloads import TraceWorkload

        with pytest.raises(WorkloadError, match="finite and >= 0"):
            TraceWorkload([1.0, bad, 1.0, 1.0])

    def test_prefix_list_is_the_prefix_sums_built_once(
        self, peak_workload
    ):
        wl = peak_workload
        pref = wl.prefix_list()
        assert type(pref) is list and len(pref) == wl.size + 1
        assert all(type(x) is float for x in pref)
        assert pref[105] - pref[17] == wl.chunk_cost(17, 105)  # bit-equal
        assert wl.prefix_list() is pref
        # The memo stays home: a pickle is the size it was before the
        # first simulation, and the copy rebuilds an equal list.
        clone = pickle.loads(pickle.dumps(wl))
        assert "_prefix_list" not in vars(clone)
        assert clone.prefix_list() == pref
        # Re-installed costs drop the memo with the prefix array.
        wl._install_costs(np.ones(wl.size))
        assert wl.prefix_list() == [float(i) for i in range(wl.size + 1)]

    def test_costs_are_read_only(self, uniform_workload):
        with pytest.raises(ValueError):
            uniform_workload.costs()[0] = 99.0

    def test_len(self, uniform_workload):
        assert len(uniform_workload) == 200

    def test_negative_size_rejected(self):
        with pytest.raises(WorkloadError):
            UniformWorkload(-1)

    def test_default_execute_returns_costs(self, peak_workload):
        np.testing.assert_array_equal(
            peak_workload.execute(3, 9), peak_workload.costs()[3:9]
        )

    def test_execute_serial_covers_loop(self, peak_workload):
        assert peak_workload.execute_serial().shape == (300,)


class TestUniform:
    def test_constant_costs(self):
        wl = UniformWorkload(50, unit=2.5)
        assert set(wl.costs().tolist()) == {2.5}

    def test_invalid_unit(self):
        with pytest.raises(WorkloadError):
            UniformWorkload(10, unit=0.0)

    def test_empty_loop(self):
        wl = UniformWorkload(0)
        assert wl.total_cost() == 0.0


class TestLinear:
    def test_increasing_matches_doall_example(self):
        # L(K) proportional to K for the increasing nested loop.
        wl = LinearWorkload(10, increasing=True, base=1.0, slope=1.0)
        np.testing.assert_allclose(wl.costs(), np.arange(1, 11))

    def test_decreasing_is_mirror(self):
        inc = LinearWorkload(10, increasing=True)
        dec = LinearWorkload(10, increasing=False)
        np.testing.assert_allclose(dec.costs(), inc.costs()[::-1])

    def test_invalid_params(self):
        with pytest.raises(WorkloadError):
            LinearWorkload(10, base=0.0)
        with pytest.raises(WorkloadError):
            LinearWorkload(10, slope=-1.0)


class TestConditional:
    def test_default_predicate_every_third(self):
        wl = ConditionalWorkload(9, cost_true=10.0, cost_false=1.0)
        np.testing.assert_allclose(
            wl.costs(), [10, 1, 1, 10, 1, 1, 10, 1, 1]
        )

    def test_custom_predicate(self):
        wl = ConditionalWorkload(
            6, cost_true=7.0, cost_false=2.0,
            predicate=lambda idx: idx < 3,
        )
        np.testing.assert_allclose(wl.costs(), [7, 7, 7, 2, 2, 2])

    def test_bad_predicate_shape(self):
        wl = ConditionalWorkload(
            5, predicate=lambda idx: np.ones(3, dtype=bool)
        )
        with pytest.raises(WorkloadError):
            wl.costs()

    def test_invalid_costs(self):
        with pytest.raises(WorkloadError):
            ConditionalWorkload(5, cost_true=0.0)


class TestRandom:
    def test_deterministic_given_seed(self):
        a = RandomWorkload(100, seed=7).costs()
        b = RandomWorkload(100, seed=7).costs()
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomWorkload(100, seed=1).costs()
        b = RandomWorkload(100, seed=2).costs()
        assert not np.array_equal(a, b)

    def test_mean_normalised(self):
        wl = RandomWorkload(5000, seed=3, mean=4.0)
        assert wl.costs().mean() == pytest.approx(4.0)

    def test_positive_costs(self):
        assert (RandomWorkload(200, seed=5).costs() > 0).all()


class TestGaussianPeak:
    def test_peak_at_center(self):
        wl = GaussianPeakWorkload(101, amplitude=50.0, center=50.0)
        assert wl.costs().argmax() == 50

    def test_floor_respected(self):
        wl = GaussianPeakWorkload(100, amplitude=10.0, floor=2.0)
        assert wl.costs().min() >= 2.0

    def test_invalid(self):
        with pytest.raises(WorkloadError):
            GaussianPeakWorkload(10, floor=0.0)


class TestTraceWorkload:
    def test_costs_from_array(self):
        from repro.workloads import TraceWorkload

        wl = TraceWorkload([3.0, 1.0, 4.0, 1.0, 5.0])
        assert wl.size == 5
        assert wl.cost(2) == 4.0
        assert wl.total_cost() == 14.0

    def test_defensive_copy(self):
        import numpy as np

        from repro.workloads import TraceWorkload

        src = np.array([1.0, 2.0])
        wl = TraceWorkload(src)
        src[0] = 99.0
        assert wl.cost(0) == 1.0

    def test_negative_rejected(self):
        from repro.workloads import TraceWorkload, WorkloadError

        with pytest.raises(WorkloadError):
            TraceWorkload([1.0, -1.0])

    @pytest.mark.parametrize("bad", [
        float("nan"), float("inf"), float("-inf"),
    ])
    def test_non_finite_rejected(self, bad):
        # ``nan < 0`` is false, so a NaN cost used to be admitted and
        # then simulated as zero work (``remaining > 1e-12`` is false
        # for it too), on the fast path and the DES alike.
        from repro.workloads import TraceWorkload

        with pytest.raises(WorkloadError, match="finite"):
            TraceWorkload([bad, 2.0])

    def test_schedulable_end_to_end(self):
        import numpy as np

        from repro.simulation import simulate
        from repro.workloads import TraceWorkload

        from tests.conftest import make_cluster

        rng = np.random.default_rng(0)
        wl = TraceWorkload(rng.exponential(2.0, size=150))
        result = simulate("DTSS", wl, make_cluster())
        assert result.total_iterations == 150


class TestSpinWorkload:
    def test_uniform_costs(self):
        from repro.workloads import SpinWorkload

        wl = SpinWorkload(10, spins=3, veclen=64)
        assert len(set(wl.costs().tolist())) == 1

    def test_execute_is_deterministic(self):
        import numpy as np

        from repro.workloads import SpinWorkload

        a = SpinWorkload(6, spins=2, veclen=32).execute(0, 6)
        b = SpinWorkload(6, spins=2, veclen=32).execute(0, 6)
        np.testing.assert_array_equal(a, b)

    def test_burn_is_real_compute(self):
        import time

        from repro.workloads import SpinWorkload

        wl = SpinWorkload(4, spins=200, veclen=4096)
        wl.execute(0, 4)
        t0 = time.perf_counter()
        wl.burn(0, 4)
        assert time.perf_counter() - t0 > 0.0005

    def test_validation(self):
        from repro.workloads import SpinWorkload, WorkloadError

        with pytest.raises(WorkloadError):
            SpinWorkload(5, spins=0)
