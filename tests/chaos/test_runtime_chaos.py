"""FaultPlan replay on the real multiprocessing runtime
(``run_parallel(plan=...)``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.chaos import (
    ChaosError,
    FaultPlan,
    LoadSpike,
    MasterStall,
    MessageDelay,
    MessageLoss,
    WorkerDeath,
)
from repro.decentral import run_decentral
from repro.obs import capture, stream_digest
from repro.runtime import run_parallel
from repro.verify import audit_run
from repro.workloads import SpinWorkload, UniformWorkload


@pytest.fixture(scope="module")
def spin_workload():
    return SpinWorkload(60, spins=50, veclen=4096)


@pytest.fixture(scope="module")
def spin_serial(spin_workload):
    return spin_workload.execute_serial()


class TestRunChaos:
    def test_death_without_restart(self, spin_workload, spin_serial):
        plan = FaultPlan(events=(WorkerDeath(worker=2, at=0.02),))
        run = run_parallel("GSS", spin_workload, 3, plan=plan)
        audit_run(run, workload=spin_workload).raise_if_failed()
        np.testing.assert_array_equal(run.results, spin_serial)

    def test_timing_faults_only(self, spin_workload, spin_serial):
        plan = FaultPlan(events=(
            MessageDelay(worker=0, at=0.0, delay=0.05),
            MessageLoss(worker=1, at=0.01),
            MasterStall(at=0.02, duration=0.05),
        ), retry_after=0.03)
        run = run_parallel("TSS", spin_workload, 3, plan=plan)
        audit_run(run, workload=spin_workload, scheme="TSS",
                  workers=3).raise_if_failed()
        np.testing.assert_array_equal(run.results, spin_serial)
        assert run.requeued == 0  # nobody died

    def test_load_spike(self, spin_workload, spin_serial):
        plan = FaultPlan(events=(
            LoadSpike(worker=1, at=0.0, duration=0.2, extra_q=2),
        ))
        run = run_parallel("FSS", spin_workload, 3, plan=plan,
                           stress_size=100)
        audit_run(run, workload=spin_workload).raise_if_failed()
        np.testing.assert_array_equal(run.results, spin_serial)

    def test_plan_outside_worker_range_rejected(self, spin_workload):
        plan = FaultPlan(events=(WorkerDeath(worker=5, at=0.1),))
        with pytest.raises(ChaosError, match="targets worker"):
            run_parallel("TSS", spin_workload, 3, plan=plan)

    def test_empty_plan_equals_plain_run(self):
        # An empty plan drives nothing: same results, same chunk cover,
        # same canonical stream as a run given no plan at all.
        wl = UniformWorkload(50)
        with capture() as planned_trace:
            run = run_parallel("CSS", wl, 2, plan=FaultPlan(), k=10,
                               collector=planned_trace)
        with capture() as plain_trace:
            plain = run_parallel("CSS", wl, 2, k=10,
                                 collector=plain_trace)
        audit_run(run, workload=wl, scheme="CSS", workers=2,
                  k=10).raise_if_failed()
        np.testing.assert_array_equal(run.results, wl.execute_serial())
        np.testing.assert_array_equal(plain.results, run.results)
        assert sorted((s, e) for _w, s, e in plain.chunks) \
            == sorted((s, e) for _w, s, e in run.chunks)
        assert stream_digest(plain_trace.events) \
            == stream_digest(planned_trace.events)
        assert not any(e.source == "chaos" for e in planned_trace.events)

    def test_time_scale_maps_plan(self, spin_workload, spin_serial):
        # A virtual-time plan (death at t=2.0) mapped into the first
        # few hundredths of a second of wall clock.
        plan = FaultPlan(events=(WorkerDeath(worker=1, at=2.0),))
        run = run_parallel("CSS", spin_workload, 3, plan=plan,
                           time_scale=0.01, k=6)
        audit_run(run, workload=spin_workload).raise_if_failed()
        np.testing.assert_array_equal(run.results, spin_serial)


@pytest.mark.parametrize("run", [run_parallel, run_decentral],
                         ids=["master", "counter"])
def test_overlapping_stalls_take_their_union(run, spin_workload,
                                             spin_serial):
    # Two 1 s stalls offset by 0.05 s hold dispatch over their union,
    # [0.05, 1.1), as on the DES -- not over their sum -- and a death
    # planned inside the window still fires on time.
    plan = FaultPlan(events=(
        MasterStall(at=0.05, duration=1.0),
        MasterStall(at=0.1, duration=1.0),
        WorkerDeath(worker=1, at=0.5),
    ))
    with capture() as trace:
        result = run("TSS", spin_workload, 3, plan=plan, collector=trace)
    assert result.elapsed < 1.6
    kills = [
        ev.t for ev in trace.events
        if ev.source == "chaos" and ev.kind == "fault"
        and ev.detail == "kill"
    ]
    assert len(kills) == 1 and abs(kills[0] - 0.5) <= 0.1, kills
    np.testing.assert_array_equal(result.results, spin_serial)
