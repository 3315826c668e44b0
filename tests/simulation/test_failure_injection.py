"""Failure-injection tests for the DES engine (fail-stop workers)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import (
    ClusterSpec,
    NodeSpec,
    SimulationError,
    simulate,
    simulate_affinity,
    simulate_tree,
)
from repro.workloads import GaussianPeakWorkload, UniformWorkload


def run(scheme, workload, cluster, **kwargs):
    """``simulate``, with "TreeS" routed to the tree engine:
    ``fails_at`` is the shared chassis's business, so every substrate
    honours it."""
    if scheme == "TreeS":
        # Results land on the master at flush epochs; a grid finer
        # than these sub-second runs lets ``t_p`` resolve a slowdown.
        return simulate_tree(
            workload, cluster, flush_interval=0.1, **kwargs
        )
    return simulate(scheme, workload, cluster, **kwargs)


def cluster_with_failures(
    failures: dict[int, float], n: int = 4, speed: float = 100.0
) -> ClusterSpec:
    return ClusterSpec(
        nodes=[
            NodeSpec(name=f"n{i}", speed=speed,
                     fails_at=failures.get(i))
            for i in range(n)
        ]
    )


class TestSingleDeath:
    def test_loop_completes(self):
        wl = UniformWorkload(300)
        for scheme in ("TSS", "TreeS"):
            result = run(scheme, wl, cluster_with_failures({0: 0.5}))
            assert result.total_iterations == 300
            assert result.workers[0].iterations < 300 // 4

    def test_results_complete_and_correct(self):
        wl = GaussianPeakWorkload(200, amplitude=20.0)
        for scheme in ("GSS", "TreeS"):
            result = run(
                scheme, wl, cluster_with_failures({1: 0.3}),
                collect_results=True,
            )
            np.testing.assert_allclose(result.results, wl.costs())

    def test_each_iteration_computed_exactly_once(self):
        wl = UniformWorkload(250)
        for scheme in ("FSS", "TreeS"):
            result = run(scheme, wl, cluster_with_failures({0: 0.4}))
            spans = sorted((c.start, c.stop) for c in result.chunks)
            cursor = 0
            for start, stop in spans:
                assert start == cursor
                cursor = stop
            assert cursor == 250

    def test_dead_worker_does_no_further_work(self):
        wl = UniformWorkload(400)
        for scheme in ("TSS", "TreeS"):
            result = run(scheme, wl, cluster_with_failures({2: 0.2}))
            dead = result.workers[2]
            # Whatever it delivered before dying stays; nothing after.
            assert dead.finished_at <= 0.2 + 1e-9 or dead.iterations >= 0
            last_by_dead = [
                c for c in result.chunks if c.worker == 2
            ]
            for c in last_by_dead:
                # Records by the dead worker are only those whose
                # results reached the master before the death.
                assert c.assigned_at < 0.2

    def test_death_slows_the_run(self):
        wl = UniformWorkload(400)
        for scheme in ("TSS", "TreeS"):
            healthy = run(scheme, wl, cluster_with_failures({}))
            failed = run(scheme, wl, cluster_with_failures({0: 0.1}))
            assert failed.t_p > healthy.t_p

    def test_distributed_scheme_survives_death(self):
        wl = UniformWorkload(500)
        result = simulate("DTSS", wl,
                          cluster_with_failures({0: 0.5}))
        assert result.total_iterations == 500


class TestMultipleDeaths:
    def test_two_deaths(self):
        wl = UniformWorkload(300)
        result = simulate(
            "DFSS", wl, cluster_with_failures({0: 0.2, 1: 0.6})
        )
        assert result.total_iterations == 300

    def test_death_before_start(self):
        wl = UniformWorkload(100)
        for scheme in ("TSS", "TreeS"):
            result = run(scheme, wl, cluster_with_failures({3: 0.0}))
            assert result.total_iterations == 100
            assert result.workers[3].iterations == 0

    def test_all_dead_raises(self):
        wl = UniformWorkload(100)
        for scheme in ("TSS", "TreeS"):
            with pytest.raises(SimulationError):
                run(
                    scheme, wl,
                    cluster_with_failures({0: 0.1, 1: 0.1, 2: 0.1,
                                           3: 0.1}),
                )

    def test_survivor_finishes_everything(self):
        wl = UniformWorkload(200)
        result = simulate(
            "SS", wl,
            cluster_with_failures({0: 0.05, 1: 0.05, 2: 0.05}),
        )
        assert result.workers[3].iterations >= 190


    def test_affinity_policy_recovers_a_dead_pe_queue(self):
        # The AS policy inherits the chassis lifecycle: its events are
        # epoch-guarded, and a dead PE's queue -- however small -- is
        # stripped by the most-loaded-victim rule.
        wl = UniformWorkload(400)
        for at in (0.0, 0.3, 0.9):
            result = simulate_affinity(
                wl, cluster_with_failures({0: at}),
                flush_interval=0.1, collect_results=True,
            )
            assert result.total_iterations == 400
            assert result.workers[0].iterations < 100
            np.testing.assert_allclose(result.results, wl.costs())


class TestRequeueOrder:
    def test_two_lost_intervals_reassigned_in_loop_order(self):
        # CSS(25) on I=100 with 4 workers: the first wave hands
        # [0,25) to n0, [25,50) to n1, [50,75) to n2, [75,100) to n3.
        # n0 and n1 die mid-chunk holding their intervals; n2 (made
        # slightly faster so it reports back first) and n3 pick up the
        # requeued work.  The requeue is FIFO, so the survivor that
        # asks first must receive [0,25) -- the loop-order interval --
        # not [25,50).
        wl = UniformWorkload(100)
        cluster = ClusterSpec(nodes=[
            NodeSpec(name="n0", speed=100.0, fails_at=0.10),
            NodeSpec(name="n1", speed=100.0, fails_at=0.11),
            NodeSpec(name="n2", speed=110.0),
            NodeSpec(name="n3", speed=100.0),
        ])
        result = simulate("CSS(25)", wl, cluster)
        assert result.total_iterations == 100
        redone = {
            rec.start: rec
            for rec in result.chunks
            if rec.worker in (2, 3) and rec.start in (0, 25)
        }
        assert set(redone) == {0, 25}
        assert redone[0].assigned_at < redone[25].assigned_at
        assert redone[0].worker == 2  # the first survivor to ask

    def test_requeue_fifo_under_sequential_deaths(self):
        # Three deaths, three lost intervals; survivors must drain
        # them lowest-start-first regardless of death order.
        wl = UniformWorkload(100)
        cluster = ClusterSpec(nodes=[
            NodeSpec(name="n0", speed=100.0, fails_at=0.12),
            NodeSpec(name="n1", speed=100.0, fails_at=0.11),
            NodeSpec(name="n2", speed=100.0, fails_at=0.10),
            NodeSpec(name="n3", speed=100.0),
        ])
        result = simulate("CSS(25)", wl, cluster)
        assert result.total_iterations == 100
        redone = sorted(
            (rec for rec in result.chunks
             if rec.worker == 3 and rec.start < 75),
            key=lambda rec: rec.assigned_at,
        )
        # Deaths happen n2, n1, n0 -- so the requeue receives
        # [50,75), [25,50), [0,25) in that order, and FIFO hands them
        # back in exactly that order.
        assert [rec.start for rec in redone] == [50, 25, 0]


class TestValidation:
    def test_negative_fails_at_rejected(self):
        with pytest.raises(SimulationError):
            NodeSpec(name="n", speed=1.0, fails_at=-1.0)

    def test_reliable_cluster_unaffected(self):
        # fails_at=None must be byte-identical to the pre-failure
        # engine behaviour.
        wl = GaussianPeakWorkload(300, amplitude=10.0)
        a = simulate("TFSS", wl, cluster_with_failures({}))
        b = simulate("TFSS", wl, cluster_with_failures({}))
        assert a.t_p == b.t_p


@given(
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=2, max_value=5),
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    st.sampled_from(["SS", "GSS", "TSS", "FSS", "DTSS", "DFISS"]),
)
@settings(max_examples=60, deadline=None)
def test_property_one_death_never_loses_iterations(
    size, n, fail_time, scheme
):
    wl = UniformWorkload(size)
    cluster = cluster_with_failures({0: fail_time}, n=n)
    result = simulate(scheme, wl, cluster)
    assert result.total_iterations == size
    spans = sorted((c.start, c.stop) for c in result.chunks)
    cursor = 0
    for start, stop in spans:
        assert start == cursor
        cursor = stop
    assert cursor == size
