"""Cross-substrate identity: adaptive decisions replay everywhere.

In the default cost-feedback mode the policy's observations are the
workload's per-chunk costs -- known at assignment time, identical on
every substrate -- so one spec + seed + workload must produce the same
chunk ledger, the same decision log, and the same canonical event
stream on the virtual-time simulator and the real multiprocessing
runtime, *including* under a seeded fault plan (requeued intervals are
reassigned verbatim, bypassing the scheduler, on both substrates).

Candidates are restricted to the order-invariant set: FSS-family
ladders depend on request arrival order, which wall-clock scheduling
does not reproduce.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chaos import FaultPlan
from repro.core import make
from repro.obs import capture, canonical_stream, stream_digest
from repro.runtime import run_parallel
from repro.simulation import ClusterSpec, NodeSpec, simulate
from repro.verify import audit_adaptive, audit_run, audit_sim
from repro.workloads import SpinWorkload

SPEC = "adaptive:TSS+GSS+CSS(16)@5"
N_WORKERS = 3


@pytest.fixture(scope="module")
def workload():
    return SpinWorkload(60, spins=50, veclen=4096)


@pytest.fixture(scope="module")
def serial(workload):
    return workload.execute_serial()


def sim_cluster(n: int = N_WORKERS) -> ClusterSpec:
    return ClusterSpec(
        nodes=[NodeSpec(name=f"n{i}", speed=100.0) for i in range(n)]
    )


def test_clean_run_same_ledger_and_stream(workload, serial):
    sim_sched = make(SPEC, workload.size, N_WORKERS, seed=1)
    with capture() as sim_trace:
        sim = simulate(sim_sched, workload, sim_cluster(),
                       collect_results=True, collector=sim_trace)
    run_sched = make(SPEC, workload.size, N_WORKERS, seed=1)
    with capture() as run_trace:
        run = run_parallel(run_sched, workload, N_WORKERS,
                           collector=run_trace)

    # identical decisions, identical interval sets, identical results
    assert sim_sched.decisions == run_sched.decisions
    assert sorted((s, e) for _w, s, e in [
        (c.worker, c.start, c.stop) for c in sim.chunks
    ]) == sorted((s, e) for _w, s, e in run.chunks)
    np.testing.assert_array_equal(sim.results, serial)
    np.testing.assert_array_equal(run.results, serial)

    # the canonical streams (result intervals, clocks stripped) match
    assert canonical_stream(sim_trace.events) == canonical_stream(
        run_trace.events
    )
    assert stream_digest(sim_trace.events) == stream_digest(
        run_trace.events
    )
    # both legs pass the adaptive audit against their own logs
    audit_adaptive(sim, sim_sched, total=workload.size,
                   workers=N_WORKERS).raise_if_failed()
    audit_adaptive(run.chunks, run_sched, total=workload.size,
                   workers=N_WORKERS).raise_if_failed()
    # and both traces carry adapt events describing the same decisions
    sim_adapt = [e.detail for e in sim_trace.events
                 if e.kind == "adapt"]
    run_adapt = [e.detail for e in run_trace.events
                 if e.kind == "adapt"]
    assert sim_adapt and sim_adapt == run_adapt


@pytest.mark.parametrize("seed", [0, 2])
def test_same_fault_plan_sim_vs_runtime(seed, workload, serial):
    plan = FaultPlan.random(seed=seed, workers=N_WORKERS, horizon=1.0)

    clean = simulate("TSS", workload, sim_cluster())
    sim_sched = make(SPEC, workload.size, N_WORKERS, seed=seed)
    with capture() as sim_trace:
        sim = simulate(
            sim_sched, workload, sim_cluster(),
            chaos=plan.scaled(0.5 * clean.t_p), collect_results=True,
            collector=sim_trace,
        )
    audit_sim(sim, workload.size).raise_if_failed()
    np.testing.assert_array_equal(sim.results, serial)

    run_sched = make(SPEC, workload.size, N_WORKERS, seed=seed)
    with capture() as run_trace:
        run = run_parallel(run_sched, workload, N_WORKERS, plan=plan,
                           time_scale=0.15, collector=run_trace)
    audit_run(run, workload=workload,
              workers=N_WORKERS).raise_if_failed()
    np.testing.assert_array_equal(run.results, serial)

    # same decisions under the same plan on both substrates
    assert sim_sched.decisions == run_sched.decisions
    audit_adaptive(sim, sim_sched, total=workload.size,
                   workers=N_WORKERS).raise_if_failed()
    audit_adaptive(run.chunks, run_sched, total=workload.size,
                   workers=N_WORKERS).raise_if_failed()
    # matching canonical streams: the wall-clock-free result ledger is
    # substrate-invariant even under faults
    assert stream_digest(sim_trace.events) == stream_digest(
        run_trace.events
    )
