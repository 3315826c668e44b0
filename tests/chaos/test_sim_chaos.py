"""FaultPlan injection in the master--slave discrete-event engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.chaos import (
    FaultPlan,
    LoadSpike,
    MasterStall,
    MessageDelay,
    MessageLoss,
    WorkerDeath,
    WorkerRestart,
)
from repro.decentral import simulate_decentral
from repro.simulation import (
    ClusterSpec,
    NodeSpec,
    SimulationError,
    simulate,
    simulate_tree,
)
from repro.workloads import GaussianPeakWorkload, UniformWorkload


def flat_cluster(n: int = 4, speed: float = 100.0) -> ClusterSpec:
    return ClusterSpec(
        nodes=[NodeSpec(name=f"n{i}", speed=speed) for i in range(n)]
    )


def exact_coverage(result, total: int) -> None:
    spans = sorted((c.start, c.stop) for c in result.chunks)
    cursor = 0
    for start, stop in spans:
        assert start == cursor, (start, cursor)
        cursor = stop
    assert cursor == total


class TestDeathAndRestart:
    def test_death_then_restart_completes_exactly_once(self):
        wl = GaussianPeakWorkload(300, amplitude=20.0)
        plan = FaultPlan(events=(
            WorkerDeath(worker=1, at=0.3),
            WorkerRestart(worker=1, at=0.9),
        ))
        result = simulate("TSS", wl, flat_cluster(), chaos=plan,
                          collect_results=True)
        exact_coverage(result, 300)
        np.testing.assert_allclose(result.results, wl.costs())

    def test_restarted_worker_does_new_work(self):
        wl = UniformWorkload(600)
        plan = FaultPlan(events=(
            WorkerDeath(worker=1, at=0.2),
            WorkerRestart(worker=1, at=0.5),
        ))
        result = simulate("SS", wl, flat_cluster(), chaos=plan)
        revived = result.workers[1]
        # It died early in a long run, came back, and kept computing.
        assert revived.finished_at > 0.5
        assert revived.iterations > 0

    def test_plan_and_fails_at_compose(self):
        # NodeSpec.fails_at (the pre-existing injection point) and a
        # chaos plan may target different workers in the same run.
        wl = UniformWorkload(400)
        nodes = [NodeSpec(name=f"n{i}", speed=100.0) for i in range(4)]
        nodes[2] = NodeSpec(name="n2", speed=100.0, fails_at=0.4)
        plan = FaultPlan(events=(WorkerDeath(worker=1, at=0.3),))
        cluster = ClusterSpec(nodes=nodes)
        for result in (
            simulate("GSS", wl, cluster, chaos=plan),
            simulate_decentral("GSS", wl, cluster, chaos=plan),
            simulate_tree(wl, cluster, chaos=plan),
        ):
            exact_coverage(result, 400)
            # Both injection points bit: neither PE kept its share.
            assert result.workers[1].iterations < 100
            assert result.workers[2].iterations < 100

    def test_all_dead_without_restart_raises(self):
        wl = UniformWorkload(500)
        plan = FaultPlan(events=tuple(
            WorkerDeath(worker=i, at=0.2) for i in range(3)
        ))
        with pytest.raises(SimulationError):
            simulate("TSS", wl, flat_cluster(3), chaos=plan)

    def test_all_dead_with_future_restart_recovers(self):
        wl = UniformWorkload(500)
        plan = FaultPlan(events=(
            WorkerDeath(worker=0, at=0.2),
            WorkerDeath(worker=1, at=0.2),
            WorkerDeath(worker=2, at=0.2),
            WorkerRestart(worker=2, at=0.6),
        ))
        result = simulate("TSS", wl, flat_cluster(3), chaos=plan,
                          collect_results=True)
        exact_coverage(result, 500)
        np.testing.assert_allclose(result.results, wl.costs())

    def test_plan_outside_cluster_rejected(self):
        wl = UniformWorkload(100)
        plan = FaultPlan(events=(WorkerDeath(worker=9, at=0.1),))
        with pytest.raises(SimulationError, match="targets worker"):
            simulate("TSS", wl, flat_cluster(3), chaos=plan)


class TestTimingFaults:
    def test_master_stall_delays_completion(self):
        wl = UniformWorkload(300)
        base = simulate("SS", wl, flat_cluster())
        stalled = simulate(
            "SS", wl, flat_cluster(),
            chaos=FaultPlan(events=(MasterStall(at=0.0, duration=2.0),)),
        )
        assert stalled.t_p > base.t_p + 1.0
        exact_coverage(stalled, 300)

    def test_message_delay_adds_wait_and_preserves_results(self):
        wl = GaussianPeakWorkload(200, amplitude=10.0)
        base = simulate("TSS", wl, flat_cluster())
        plan = FaultPlan(events=(
            MessageDelay(worker=2, at=0.0, delay=1.5),
        ))
        delayed = simulate("TSS", wl, flat_cluster(), chaos=plan,
                           collect_results=True)
        assert delayed.workers[2].t_wait > base.workers[2].t_wait + 1.0
        np.testing.assert_allclose(delayed.results, wl.costs())

    def test_message_loss_is_delay_by_retry_after(self):
        wl = UniformWorkload(200)
        loss = simulate(
            "TSS", wl, flat_cluster(),
            chaos=FaultPlan(events=(MessageLoss(worker=1, at=0.0),),
                            retry_after=1.0),
        )
        delay = simulate(
            "TSS", wl, flat_cluster(),
            chaos=FaultPlan(events=(
                MessageDelay(worker=1, at=0.0, delay=1.0),
            )),
        )
        assert loss.t_p == pytest.approx(delay.t_p)

    def test_load_spike_slows_victim(self):
        wl = UniformWorkload(400)
        base = simulate("SS", wl, flat_cluster())
        spiked = simulate(
            "SS", wl, flat_cluster(),
            chaos=FaultPlan(events=(
                LoadSpike(worker=0, at=0.0, duration=base.t_p * 2,
                          extra_q=4),
            )),
        )
        # Worker 0 computes at 1/5 speed for the whole run: it delivers
        # fewer iterations than in the clean run.
        assert spiked.workers[0].iterations < base.workers[0].iterations
        exact_coverage(spiked, 400)

    def test_spike_does_not_mutate_caller_cluster(self):
        wl = UniformWorkload(100)
        cluster = flat_cluster()
        before = [n.load for n in cluster.nodes]
        simulate(
            "TSS", wl, cluster,
            chaos=FaultPlan(events=(
                LoadSpike(worker=1, at=0.0, duration=1.0),
            )),
        )
        assert [n.load for n in cluster.nodes] == before


class TestDeterminism:
    def test_same_plan_same_trace(self):
        wl = GaussianPeakWorkload(250, amplitude=15.0)
        plan = FaultPlan.random(seed=5, workers=4, horizon=1.0)
        first = simulate("DTSS", wl, flat_cluster(), chaos=plan)
        second = simulate("DTSS", wl, flat_cluster(), chaos=plan)
        assert [(c.worker, c.start, c.stop, c.assigned_at)
                for c in first.chunks] \
            == [(c.worker, c.start, c.stop, c.assigned_at)
                for c in second.chunks]
        assert first.t_p == second.t_p

    @pytest.mark.parametrize("scheme", ["SS", "GSS", "TSS", "FSS",
                                        "DTSS", "DTFSS"])
    def test_random_plans_keep_results_exact(self, scheme):
        wl = GaussianPeakWorkload(220, amplitude=12.0)
        for seed in range(3):
            plan = FaultPlan.random(seed=seed, workers=4, horizon=1.0)
            result = simulate(scheme, wl, flat_cluster(), chaos=plan,
                              collect_results=True)
            exact_coverage(result, 220)
            np.testing.assert_allclose(result.results, wl.costs())
