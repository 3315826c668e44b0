"""Property-based chaos tests: any plan, any scheme, any cluster.

For arbitrary (seeded) fault plans over arbitrary small clusters and
workloads, every registered scheme must keep the run's trace
auditor-clean and its results bit-identical to the serial execution.
This is the chaos-hardened version of the scheme invariants in
``tests/core/test_properties.py``, checked through the whole
discrete-event engine instead of on the pure policy objects.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import FaultPlan
from repro.core import names
from repro.simulation import (
    ClusterSpec,
    ConstantLoad,
    NodeSpec,
    RandomLoad,
    SimulationError,
    simulate,
    simulate_tree,
)
from repro.verify import audit_sim
from repro.workloads import GaussianPeakWorkload, UniformWorkload

ALL_SCHEMES = sorted(names())


@st.composite
def chaos_case(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    total = draw(st.integers(min_value=50, max_value=400))
    plan_seed = draw(st.integers(min_value=0, max_value=10**6))
    load_seed = draw(st.integers(min_value=0, max_value=10**6))
    speeds = [
        float(draw(st.sampled_from([50, 100, 150, 300])))
        for _ in range(n)
    ]
    loaded = draw(st.booleans())
    nodes = [
        NodeSpec(
            name=f"n{i}",
            speed=speeds[i],
            load=(RandomLoad(seed=load_seed + i, arrival_rate=0.5,
                             mean_duration=1.0)
                  if loaded and i % 2 else ConstantLoad(1)),
        )
        for i in range(n)
    ]
    peaked = draw(st.booleans())
    workload = (
        GaussianPeakWorkload(total, amplitude=25.0)
        if peaked else UniformWorkload(total)
    )
    plan = FaultPlan.random(
        seed=plan_seed, workers=n, horizon=2.0,
        deaths=draw(st.integers(min_value=0, max_value=2)),
    )
    return workload, ClusterSpec(nodes=nodes), plan


@given(chaos_case(), st.sampled_from(ALL_SCHEMES))
@settings(max_examples=30, deadline=None)
def test_any_scheme_survives_any_plan(case, scheme):
    workload, cluster, plan = case
    result = simulate(scheme, workload, cluster, chaos=plan,
                      collect_results=True)
    audit_sim(result, workload.size, scheme=scheme).raise_if_failed()
    np.testing.assert_allclose(result.results, workload.costs())


@given(chaos_case())
@settings(max_examples=15, deadline=None)
def test_tree_engine_survives_or_reports(case):
    workload, cluster, plan = case
    try:
        result = simulate_tree(workload, cluster, chaos=plan,
                               collect_results=True)
    except SimulationError as exc:
        # the documented unrecoverable fail-stop case -- never silent
        assert "could not recover" in str(exc)
        return
    audit_sim(result, workload.size).raise_if_failed()
    np.testing.assert_allclose(result.results, workload.costs())


@given(chaos_case(), st.sampled_from(["TSS", "DTSS", "FSS"]))
@settings(max_examples=15, deadline=None)
def test_chaos_runs_are_deterministic(case, scheme):
    workload, cluster, plan = case
    first = simulate(scheme, workload, cluster, chaos=plan)
    second = simulate(scheme, workload, cluster, chaos=plan)
    assert first.t_p == second.t_p
    assert [(c.worker, c.start, c.stop, c.assigned_at, c.completed_at)
            for c in first.chunks] \
        == [(c.worker, c.start, c.stop, c.assigned_at, c.completed_at)
            for c in second.chunks]


@given(st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=50, deadline=None)
def test_random_plans_always_validate(seed, workers):
    plan = FaultPlan.random(seed=seed, workers=workers, deaths=2,
                            delays=2, losses=2, stalls=2, spikes=2)
    assert plan.max_worker < workers
    clone = FaultPlan.from_json(plan.to_json())
    assert clone == plan


@given(st.integers(min_value=0, max_value=10**6),
       st.floats(min_value=1e-6, max_value=10.0))
@settings(max_examples=200, deadline=None)
def test_random_plans_on_any_horizon(seed, horizon):
    """A horizon under a few milliseconds (the ledger draws at
    ``max(t_p, 1e-6)``) used to put the restart draw's ``at + 1e-3``
    lower bound past its upper one: numpy's bare ``ValueError``."""
    plan = FaultPlan.random(seed=seed, workers=4, horizon=horizon,
                            deaths=3, restart_probability=1.0)
    died = {d.worker: d.at for d in plan.deaths}
    assert len(plan.restarts) == len(died) == 3
    for back in plan.restarts:
        assert died[back.worker] <= back.at <= horizon
