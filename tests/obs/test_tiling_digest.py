"""The executed-tiling identity: a run's digest is read off its rows.

Every scheme covers the loop exactly once, so a run's canonical stream
is its executed tiling: one ``result`` event per chunk row that
survived, lost chunks un-booked, a requeued interval booked again
where it ran.  :func:`repro.obs.tiling_digest` over
``SimResult.chunks`` therefore equals :func:`repro.obs.stream_digest`
over the run's trace -- which is how the service digests a job that
ran unobserved.  Held here on every runnable ``golden_des.json`` case
(every fault kind, three engines) and on random fault plans over the
registry on every engine.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.chaos import FaultPlan
from repro.core import names
from repro.decentral import DECENTRAL_SCHEMES, simulate_decentral
from repro.obs import BufferedCollector, stream_digest, tiling_digest
from repro.simulation import (
    ClusterSpec,
    NodeSpec,
    SimulationError,
    simulate,
    simulate_tree,
)
from repro.workloads import GaussianPeakWorkload

from ..simulation.test_des_oracle import CASES, run_case


def _observed(run):
    """``run(collector)``'s result and its trace's digest."""
    trace = BufferedCollector()
    result = run(trace)
    return result, stream_digest(trace.events)


@pytest.mark.parametrize("substrate,fault", CASES)
def test_rows_digest_equals_the_stream_digest(substrate, fault):
    try:
        result, digest = _observed(
            lambda trace: run_case(substrate, fault, trace)
        )
    except SimulationError:
        pytest.skip("the case strands its loop: no result to digest")
    assert tiling_digest(result.chunks) == digest


def _cluster(workers: int, result_bytes: float = 8.0) -> ClusterSpec:
    return ClusterSpec(
        nodes=[
            NodeSpec(name=f"n{i}", speed=100.0 + 35.0 * i,
                     virtual_power=1.0 + 0.5 * (i % 2))
            for i in range(workers)
        ],
        result_bytes_per_item=result_bytes,
    )


def _runner(engine: str, scheme: str, cluster: ClusterSpec, workload):
    """``run(collector, chaos)`` for one engine."""
    if engine == "master":
        return lambda trace, chaos: simulate(
            scheme, workload, cluster, chaos=chaos, collector=trace)
    if engine == "decentral":
        return lambda trace, chaos: simulate_decentral(
            scheme, workload, cluster, chaos=chaos, collector=trace)
    return lambda trace, chaos: simulate_tree(
        workload, cluster, weighted=scheme == "weighted",
        flush_interval=0.2, chaos=chaos, collector=trace)


_ENGINE_SCHEMES = st.one_of(
    st.tuples(st.just("master"), st.sampled_from(names())),
    st.tuples(st.just("decentral"),
              st.sampled_from(sorted(DECENTRAL_SCHEMES))),
    st.tuples(st.just("tree"), st.sampled_from(["even", "weighted"])),
)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    engine_scheme=_ENGINE_SCHEMES,
    workers=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
    size=st.integers(min_value=20, max_value=240),
)
def test_random_fault_plans_keep_the_identity(
    engine_scheme, workers, seed, size
):
    engine, scheme = engine_scheme
    workload = GaussianPeakWorkload(size, amplitude=6.0)
    run = _runner(engine, scheme, _cluster(workers), workload)
    # The plan lands inside the fault-free run.
    horizon = run(None, None).t_p
    plan = FaultPlan.random(seed, workers, horizon=horizon)
    try:
        result, digest = _observed(lambda trace: run(trace, plan))
    except SimulationError:
        return  # stranded: nothing survived to tile the loop
    assert tiling_digest(result.chunks) == digest


@pytest.mark.parametrize("scheme", ["TSS", "DFSS"])
def test_results_of_no_bytes_still_land(scheme):
    """``result_bytes_per_item=0``: a request after a chunk still
    delivers it, so its trace holds the tiling and ``T_p`` is when the
    last one landed."""
    workload = GaussianPeakWorkload(120, amplitude=6.0)
    run = _runner("master", scheme, _cluster(3, result_bytes=0.0),
                  workload)
    result, digest = _observed(lambda trace: run(trace, None))
    assert tiling_digest(result.chunks) == digest
    assert result.t_p > 0.0
    assert result == run(None, None)
