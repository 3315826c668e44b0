"""Simulator-vs-runtime parity tests (the substitution argument)."""

from __future__ import annotations

import pytest

from repro.experiments.parity import compare_substrates
from repro.workloads import MandelbrotWorkload, UniformWorkload


@pytest.fixture(scope="module")
def parity_workload():
    return MandelbrotWorkload(80, 50, max_iter=24)


@pytest.mark.parametrize(
    "scheme", ["CSS(8)", "GSS", "TSS", "FSS", "FISS", "TFSS", "DTSS"]
)
def test_substrates_agree(scheme, parity_workload):
    report = compare_substrates(scheme, parity_workload, n_workers=3)
    assert report.results_match, scheme
    assert report.sim_coverage_ok and report.run_coverage_ok
    assert report.ok, report


@pytest.mark.parametrize("scheme", ["CSS(8)", "TSS", "DTSS"])
def test_both_substrates_pass_the_auditor(scheme, parity_workload):
    """Full invariant audit (not just coverage) on both traces."""
    from repro.runtime import run_parallel
    from repro.simulation import ClusterSpec, NodeSpec, simulate
    from repro.verify import audit_run, audit_sim

    cluster = ClusterSpec(nodes=[
        NodeSpec(name=f"n{i}", speed=100.0) for i in range(3)
    ])
    sim = simulate(scheme, parity_workload, cluster)
    audit_sim(sim, parity_workload.size, scheme=scheme).raise_if_failed()
    run = run_parallel(scheme, parity_workload, 3)
    audit_run(run, workload=parity_workload, scheme=scheme,
              workers=3).raise_if_failed()


def test_first_chunk_identical_for_css(parity_workload):
    # CSS's chunk sizes are order-independent: the full multiset of
    # sizes must match across substrates, not just the counts.
    report = compare_substrates("CSS(7)", parity_workload, n_workers=3)
    assert report.sim_chunks == report.run_chunks
    assert report.sim_largest == report.run_largest == 7


def test_uniform_workload_parity():
    report = compare_substrates("TSS", UniformWorkload(120),
                                n_workers=4)
    assert report.ok


def test_runtime_wait_accounting_present(parity_workload):
    from repro.runtime import run_parallel

    run = run_parallel("GSS", parity_workload, 3)
    waits = [s.t_wait for s in run.stats.values()]
    assert all(w >= 0.0 for w in waits)
    assert any(w > 0.0 for w in waits)
