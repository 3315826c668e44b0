"""Integration tests for the master--slave DES engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CLASSIC_ACP, IMPROVED_ACP, AcpModel, make
from repro.obs import BufferedCollector
from repro.simulation import (
    ClusterSpec,
    ConstantLoad,
    NodeSpec,
    SimulationError,
    StarvationError,
    StepLoad,
    simulate,
)
from repro.workloads import UniformWorkload

from tests.conftest import make_cluster

ALL_MASTER_SCHEMES = [
    "S", "SS", "CSS(8)", "GSS", "TSS", "FSS", "FISS", "TFSS", "WF",
    "DTSS", "DFSS", "DFISS", "DTFSS",
]


@pytest.mark.parametrize("scheme", ALL_MASTER_SCHEMES)
def test_every_scheme_completes_and_reproduces_serial(
    scheme, reordered_mandelbrot, hetero_cluster
):
    result = simulate(
        scheme, reordered_mandelbrot, hetero_cluster,
        collect_results=True,
    )
    assert result.total_iterations == reordered_mandelbrot.size
    serial = reordered_mandelbrot.execute_serial()
    np.testing.assert_array_equal(
        np.asarray(result.results).reshape(serial.shape), serial
    )
    assert result.t_p > 0


class TestAccounting:
    def test_time_buckets_nonnegative(self, uniform_workload,
                                      hetero_cluster):
        result = simulate("TSS", uniform_workload, hetero_cluster)
        for w in result.workers:
            assert w.t_com >= 0 and w.t_wait >= 0 and w.t_comp >= 0

    def test_comp_time_scales_with_speed(self, uniform_workload):
        # Same iterations on a 3x faster PE -> 1/3 the comp time.
        cluster = make_cluster(n_fast=1, n_slow=1)
        result = simulate("S", uniform_workload, cluster)
        fast, slow = result.workers
        # Static halves: each computes 100 units.
        assert slow.t_comp == pytest.approx(3 * fast.t_comp, rel=0.01)

    def test_terminal_idle_counted_as_wait(self, uniform_workload):
        # With static scheduling on a 3x-heterogeneous pair, the fast
        # PE idles ~2/3 of the run; its buckets must account up to T_p.
        cluster = make_cluster(n_fast=1, n_slow=1)
        result = simulate("S", uniform_workload, cluster)
        fast = result.workers[0]
        assert fast.busy == pytest.approx(result.t_p, rel=0.05)

    def test_tp_is_last_result_arrival(self, uniform_workload,
                                       hetero_cluster):
        result = simulate("TSS", uniform_workload, hetero_cluster)
        last_completion = max(c.completed_at for c in result.chunks)
        assert result.t_p >= last_completion

    def test_chunk_records_cover_loop(self, uniform_workload,
                                      hetero_cluster):
        result = simulate("GSS", uniform_workload, hetero_cluster)
        covered = sorted(
            (c.start, c.stop) for c in result.chunks
        )
        cursor = 0
        for start, stop in covered:
            assert start == cursor
            cursor = stop
        assert cursor == uniform_workload.size


class TestHeterogeneityEffects:
    def test_distributed_beats_simple_static_imbalance(
        self, peak_workload
    ):
        cluster = make_cluster(n_fast=2, n_slow=2)
        simple = simulate("FSS", peak_workload, cluster)
        dist = simulate("DFSS", peak_workload, cluster)
        assert dist.t_p <= simple.t_p * 1.05

    def test_distributed_balances_comp_times(self, uniform_workload):
        cluster = make_cluster(n_fast=2, n_slow=2)
        dist = simulate("DTSS", uniform_workload, cluster)
        assert dist.comp_imbalance() < 0.5

    def test_fast_workers_do_more_iterations_distributed(
        self, uniform_workload
    ):
        cluster = make_cluster(n_fast=1, n_slow=1)
        dist = simulate("DFSS", uniform_workload, cluster)
        fast, slow = dist.workers
        assert fast.iterations > 2 * slow.iterations


class TestNondedicatedMode:
    def test_overload_slows_computation(self, uniform_workload):
        ded = simulate("TSS", uniform_workload, make_cluster())
        over = simulate(
            "TSS", uniform_workload,
            make_cluster(overloaded=(0, 2), q=3),
        )
        assert over.t_p > ded.t_p

    def test_distributed_adapts_to_overload(self, uniform_workload):
        cluster = make_cluster(overloaded=(0,), q=3)
        simple = simulate("FSS", uniform_workload, cluster)
        dist = simulate("DFSS", uniform_workload, cluster)
        assert dist.t_p <= simple.t_p

    def test_mid_run_load_change_triggers_rederivation(self):
        # Loads jump on most PEs mid-run; DTSS must re-derive.
        wl = UniformWorkload(2000, unit=1.0)
        nodes = [
            NodeSpec(
                name=f"n{i}",
                speed=100.0,
                load=StepLoad([(5.0, 4)]),
            )
            for i in range(4)
        ]
        cluster = ClusterSpec(nodes=nodes)
        result = simulate("DTSS", wl, cluster)
        assert result.rederivations >= 1
        assert result.total_iterations == 2000


class TestStarvation:
    def test_classic_acp_deadlocks(self):
        # The paper's Sec. 5.2-I scenario: both PEs floor to ACP 0.
        wl = UniformWorkload(100)
        nodes = [
            NodeSpec(name="a", speed=100.0, load=ConstantLoad(2),
                     virtual_power=1.0),
            NodeSpec(name="b", speed=300.0, load=ConstantLoad(4),
                     virtual_power=3.0),
        ]
        cluster = ClusterSpec(nodes=nodes)
        with pytest.raises(StarvationError):
            simulate("DTSS", wl, cluster, acp_model=CLASSIC_ACP)

    def test_improved_acp_runs_same_cluster(self):
        wl = UniformWorkload(100)
        nodes = [
            NodeSpec(name="a", speed=100.0, load=ConstantLoad(2),
                     virtual_power=1.0),
            NodeSpec(name="b", speed=300.0, load=ConstantLoad(4),
                     virtual_power=3.0),
        ]
        cluster = ClusterSpec(nodes=nodes)
        result = simulate("DTSS", wl, cluster, acp_model=IMPROVED_ACP)
        assert result.total_iterations == 100

    def test_a_min_excludes_slow_worker(self):
        # A_min = 6: the loaded slow PE (A = 5) sits out; the fast one
        # (A = 7) does everything.
        wl = UniformWorkload(100)
        nodes = [
            NodeSpec(name="slow", speed=100.0, load=ConstantLoad(2),
                     virtual_power=1.0),
            NodeSpec(name="fast", speed=300.0, load=ConstantLoad(4),
                     virtual_power=3.0),
        ]
        cluster = ClusterSpec(nodes=nodes)
        model = AcpModel(scale=10, a_min=6)
        result = simulate("DTSS", wl, cluster, acp_model=model)
        assert result.workers[0].iterations == 0
        assert result.workers[1].iterations == 100

    @pytest.mark.parametrize("fast", [False, True])
    @pytest.mark.parametrize("scheme, first", [("DTSS", 441),
                                               ("DFSS", 500)])
    def test_screened_out_pe_counts_nothing_in_A(self, scheme, first,
                                                 fast):
        """Regression: the first derivation gave a PE screened out at
        start-up the V=Q=1 default, so the paper's Sec. 5.2 example was
        derived over A = 20 and the one admitted PE (A_i = 10) got
        half-size chunks (DTSS 235, DFSS 250)."""
        nodes = [
            NodeSpec(name="slow", speed=100.0, load=ConstantLoad(2),
                     virtual_power=1.0),
            NodeSpec(name="fast", speed=300.0, load=ConstantLoad(3),
                     virtual_power=3.0),
        ]
        model = AcpModel(scale=10, a_min=6)  # A = (5, 10): "slow" sits out
        scheduler = make(scheme, 1000, 2, acp_model=model)
        trace = None if fast else BufferedCollector()
        result = simulate(scheduler, UniformWorkload(1000),
                          ClusterSpec(nodes=nodes), acp_model=model,
                          collector=trace, fast=fast)
        assert result.chunks[0].worker == 1
        assert result.chunks[0].stop - result.chunks[0].start == first
        assert result.workers[1].iterations == 1000
        assert scheduler._acps == {0: 0, 1: 10}
        assert scheduler.total_acp == 10
        if trace is not None:
            updates = [e for e in trace.events if e.kind == "acp-update"]
            assert [(e.worker, e.acp) for e in updates] == [(1, 10)]


class TestEdgeCases:
    def test_empty_loop(self, hetero_cluster):
        result = simulate("TSS", UniformWorkload(0), hetero_cluster)
        assert result.t_p == 0.0
        assert result.total_iterations == 0

    def test_more_workers_than_iterations(self):
        cluster = make_cluster(n_fast=4, n_slow=4)
        result = simulate("SS", UniformWorkload(3), cluster)
        assert result.total_iterations == 3

    def test_single_worker(self):
        cluster = make_cluster(n_fast=1, n_slow=0)
        result = simulate("GSS", UniformWorkload(50), cluster)
        assert result.total_iterations == 50

    def test_size_mismatch_rejected(self, hetero_cluster):
        sched = make("TSS", 999, hetero_cluster.size)
        with pytest.raises(SimulationError):
            simulate(sched, UniformWorkload(100), hetero_cluster)

    def test_worker_count_mismatch_rejected(self, hetero_cluster):
        sched = make("TSS", 100, 2)
        with pytest.raises(SimulationError):
            simulate(sched, UniformWorkload(100), hetero_cluster)

    def test_factory_callable_accepted(self, uniform_workload,
                                       hetero_cluster):
        result = simulate(
            lambda total, workers: make("CSS", total, workers, k=25),
            uniform_workload,
            hetero_cluster,
        )
        assert result.total_chunks == 8


class TestDeterminism:
    def test_same_inputs_same_result(self, peak_workload):
        cluster = make_cluster()
        a = simulate("DTSS", peak_workload, cluster)
        b = simulate("DTSS", peak_workload, make_cluster())
        assert a.t_p == b.t_p
        assert [c.size for c in a.chunks] == [c.size for c in b.chunks]
