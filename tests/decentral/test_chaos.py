"""Fault injection on the decentral substrate: sim and real SIGKILL."""

from __future__ import annotations

import numpy as np
import pytest

from repro.chaos import (
    ChaosError,
    FaultPlan,
    LoadSpike,
    MasterStall,
    MessageDelay,
    WorkerDeath,
    WorkerRestart,
)
from repro.decentral import REPAIR_LANE, run_decentral, simulate_decentral
from repro.simulation import SimulationError
from repro.verify import audit_run, audit_sim
from repro.workloads import SpinWorkload, UniformWorkload

from tests.conftest import make_cluster


@pytest.fixture(scope="module")
def spin_workload():
    return SpinWorkload(60, spins=50, veclen=4096)


@pytest.fixture(scope="module")
def spin_serial(spin_workload):
    return spin_workload.execute_serial()


class TestSimulatedChaos:
    def setup_method(self):
        self.wl = UniformWorkload(600, unit=20.0)
        self.cluster = make_cluster()

    def _check(self, res, scheme=None):
        audit_sim(res, self.wl.size, scheme=scheme).raise_if_failed()
        np.testing.assert_array_equal(
            res.results, self.wl.execute_serial()
        )

    def test_death_scavenges_lost_ordinals(self):
        clean = simulate_decentral("TSS", self.wl, self.cluster)
        plan = FaultPlan(events=(
            WorkerDeath(worker=1, at=0.3 * clean.t_p),
        ))
        res = simulate_decentral("TSS", self.wl, self.cluster,
                                 chaos=plan, collect_results=True)
        self._check(res, scheme="TSS")
        assert all(c.worker != 1 or c.completed_at <= 0.3 * clean.t_p
                   for c in res.chunks)

    def test_death_and_restart(self):
        clean = simulate_decentral("FSS", self.wl, self.cluster)
        plan = FaultPlan(events=(
            WorkerDeath(worker=0, at=0.2 * clean.t_p),
            WorkerRestart(worker=0, at=0.6 * clean.t_p),
        ))
        res = simulate_decentral("FSS", self.wl, self.cluster,
                                 chaos=plan, collect_results=True)
        self._check(res)

    def test_counter_stall_delays_claims(self):
        clean = simulate_decentral("SS", self.wl, self.cluster)
        plan = FaultPlan(events=(
            MasterStall(at=0.1 * clean.t_p, duration=0.5 * clean.t_p),
        ))
        res = simulate_decentral("SS", self.wl, self.cluster,
                                 chaos=plan, collect_results=True)
        self._check(res, scheme="SS")
        # every worker queues behind the held counter at least once
        assert res.t_p > clean.t_p

    def test_message_delay_accounted_as_wait(self):
        plan = FaultPlan(events=(
            MessageDelay(worker=2, at=0.0, delay=0.05),
        ))
        base = simulate_decentral("TSS", self.wl, self.cluster)
        res = simulate_decentral("TSS", self.wl, self.cluster, chaos=plan,
                                 collect_results=True)
        self._check(res, scheme="TSS")
        assert res.workers[2].t_wait >= base.workers[2].t_wait + 0.05

    def test_hierarchical_group_death_reclaims_lease(self):
        # Kill an entire group mid-run: its unclaimed lease block must
        # be scavenged by the survivors, not leak.
        clean = simulate_decentral("FSS", self.wl, self.cluster,
                                   group_size=2)
        plan = FaultPlan(events=(
            WorkerDeath(worker=0, at=0.3 * clean.t_p),
            WorkerDeath(worker=1, at=0.3 * clean.t_p),
        ))
        res = simulate_decentral("FSS", self.wl, self.cluster,
                                 group_size=2, lease=8, chaos=plan,
                                 collect_results=True)
        self._check(res)

    def test_all_dead_raises(self):
        plan = FaultPlan(events=tuple(
            WorkerDeath(worker=i, at=0.001)
            for i in range(self.cluster.size)
        ))
        with pytest.raises(SimulationError, match="cannot complete"):
            simulate_decentral("TSS", self.wl, self.cluster, chaos=plan)

    def test_plan_outside_cluster_rejected(self):
        plan = FaultPlan(events=(WorkerDeath(worker=99, at=0.1),))
        with pytest.raises(SimulationError, match="targets worker"):
            simulate_decentral("TSS", self.wl, self.cluster, chaos=plan)


class TestRuntimeChaos:
    def test_sigkill_mid_loop_exactly_once(self, spin_workload,
                                           spin_serial):
        plan = FaultPlan(events=(WorkerDeath(worker=1, at=0.05),))
        run = run_decentral("FSS", spin_workload, 3, plan=plan)
        audit_run(run, spin_workload.size, workers=3,
                  workload=spin_workload).raise_if_failed()
        np.testing.assert_array_equal(run.results, spin_serial)

    def test_sigkill_hole_repaired_by_merge(self, spin_workload,
                                            spin_serial):
        # Two workers, fat chunks: the kill lands mid-chunk, the chunk
        # never reaches the shard, and the repair lane recomputes it.
        plan = FaultPlan(events=(WorkerDeath(worker=1, at=0.1),))
        run = run_decentral("CSS(15)", spin_workload, 2, plan=plan)
        audit_run(run, spin_workload.size, workers=2,
                  workload=spin_workload).raise_if_failed()
        np.testing.assert_array_equal(run.results, spin_serial)
        if run.recovered:
            assert any(w == REPAIR_LANE for w, _s, _e in run.chunks)

    def test_death_then_restart(self, spin_workload, spin_serial):
        plan = FaultPlan(events=(
            WorkerDeath(worker=2, at=0.05),
            WorkerRestart(worker=2, at=0.3),
        ))
        run = run_decentral("GSS", spin_workload, 3, plan=plan)
        audit_run(run, spin_workload.size, workers=3,
                  workload=spin_workload).raise_if_failed()
        np.testing.assert_array_equal(run.results, spin_serial)

    def test_counter_stall_survivable(self, spin_workload, spin_serial):
        # A MasterStall maps to holding the counter's flock: claims
        # block, nobody deadlocks, the loop completes.  The LoadSpike
        # runs real stressors alongside, so the counter substrate sees
        # every non-fatal arm of the shared fault script.
        plan = FaultPlan(events=(
            LoadSpike(worker=1, at=0.0, duration=0.2, extra_q=2),
            MasterStall(at=0.05, duration=0.3),
        ))
        run = run_decentral("TSS", spin_workload, 3, plan=plan,
                            stress_size=100)
        audit_run(run, spin_workload.size, workers=3,
                  workload=spin_workload).raise_if_failed()
        np.testing.assert_array_equal(run.results, spin_serial)

    def test_chaos_in_hierarchical_mode(self, spin_workload, spin_serial):
        plan = FaultPlan(events=(WorkerDeath(worker=0, at=0.05),))
        run = run_decentral("FSS", spin_workload, 4, group_size=2,
                            plan=plan)
        audit_run(run, spin_workload.size, workers=4,
                  workload=spin_workload).raise_if_failed()
        np.testing.assert_array_equal(run.results, spin_serial)

    def test_plan_outside_worker_range_rejected(self, spin_workload):
        plan = FaultPlan(events=(WorkerDeath(worker=7, at=0.1),))
        with pytest.raises(ChaosError):
            run_decentral("TSS", spin_workload, 3, plan=plan)
