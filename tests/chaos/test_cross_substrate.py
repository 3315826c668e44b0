"""The tentpole acceptance test: one seeded plan, every substrate.

The same :class:`FaultPlan` (mapped onto each substrate's timescale
with :meth:`FaultPlan.scaled`) must yield an auditor-clean trace and a
final result bit-identical to the serial execution on the master-slave
simulator, the TreeS simulator, and the real multiprocessing runtime --
hence bit-identical across substrates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chaos import FaultPlan
from repro.runtime import run_parallel
from repro.simulation import (
    ClusterSpec,
    NodeSpec,
    SimulationError,
    simulate,
    simulate_tree,
)
from repro.verify import audit_run, audit_sim
from repro.workloads import SpinWorkload


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


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("scheme", ["TSS", "DTSS"])
def test_same_plan_all_substrates(seed, scheme, workload, serial):
    plan = FaultPlan.random(seed=seed, workers=N_WORKERS, horizon=1.0)

    # -- master-slave simulator (virtual time) -------------------------
    clean = simulate(scheme, workload, sim_cluster())
    sim = simulate(
        scheme, workload, sim_cluster(),
        chaos=plan.scaled(0.5 * clean.t_p), collect_results=True,
    )
    audit_sim(sim, workload.size, scheme=scheme).raise_if_failed()
    np.testing.assert_array_equal(sim.results, serial)

    # -- TreeS simulator (virtual time, decentralized) -----------------
    tree_clean = simulate_tree(workload, sim_cluster())
    try:
        tree = simulate_tree(
            workload, sim_cluster(),
            chaos=plan.scaled(0.5 * tree_clean.t_p),
            collect_results=True,
        )
    except SimulationError as exc:
        # documented unrecoverable fail-stop case; never silent
        assert "could not recover" in str(exc)
    else:
        audit_sim(tree, workload.size).raise_if_failed()
        np.testing.assert_array_equal(tree.results, serial)

    # -- real multiprocessing runtime (wall clock) ---------------------
    run = run_parallel(scheme, workload, N_WORKERS, plan=plan,
                       time_scale=0.15)
    audit_run(run, workload=workload, scheme=scheme,
              workers=N_WORKERS).raise_if_failed()
    np.testing.assert_array_equal(run.results, serial)
