"""Simulator-vs-runtime parity: DESIGN.md's X1, the substitution
argument executed.

The same scheme on the same workload through the discrete-event
simulator and through real processes must agree on what self-scheduling
depends on: both traces pass the auditor (exactly-once coverage of
``[0, I)``), both reassembled results equal the serial execution bit
for bit (``audit_run(workload=...)``), and the chunk counts sit in one
band.  Request order differs between substrates, so the traces need
not be identical; CSS's sizes are order-independent, so its counts and
largest chunk match exactly.
"""

from __future__ import annotations

import pytest

from repro.runtime import run_parallel
from repro.simulation import ClusterSpec, NodeSpec, simulate
from repro.verify import audit_run, audit_sim
from repro.workloads import MandelbrotWorkload, UniformWorkload


@pytest.fixture(scope="module")
def parity_workload():
    return MandelbrotWorkload(80, 50, max_iter=24)


def _both(scheme, workload, n_workers):
    """Chunk sizes of ``scheme`` on both substrates, each trace audited
    and its results checked against the serial execution."""
    cluster = ClusterSpec(nodes=[
        NodeSpec(name=f"n{i}", speed=max(workload.total_cost(), 1.0))
        for i in range(n_workers)
    ])
    sim = simulate(scheme, workload, cluster, collect_results=True)
    audit_sim(sim, workload.size).raise_if_failed()
    audit_run(sim, workload=workload).raise_if_failed()
    run = run_parallel(scheme, workload, n_workers)
    audit_run(run, workload=workload).raise_if_failed()
    return ([c.size for c in sim.chunks],
            [stop - start for _w, start, stop in run.chunks])


def _assert_counts_close(sim_sizes, run_sizes):
    low, high = sorted((len(sim_sizes), len(run_sizes)))
    assert high <= 2 * low + 4, (len(sim_sizes), len(run_sizes))


@pytest.mark.parametrize(
    "scheme", ["CSS(8)", "GSS", "TSS", "FSS", "FISS", "TFSS", "DTSS"]
)
def test_substrates_agree(scheme, parity_workload):
    _assert_counts_close(*_both(scheme, parity_workload, 3))


@pytest.mark.parametrize("scheme", ["CSS(8)", "TSS", "DTSS"])
def test_both_substrates_pass_the_auditor(scheme, parity_workload):
    """Full invariant audit (not just coverage) on both traces."""
    cluster = ClusterSpec(nodes=[
        NodeSpec(name=f"n{i}", speed=100.0) for i in range(3)
    ])
    sim = simulate(scheme, parity_workload, cluster)
    audit_sim(sim, parity_workload.size, scheme=scheme).raise_if_failed()
    run = run_parallel(scheme, parity_workload, 3)
    audit_run(run, workload=parity_workload, scheme=scheme,
              workers=3).raise_if_failed()


def test_first_chunk_identical_for_css(parity_workload):
    # CSS's chunk sizes are order-independent: the counts and the
    # largest chunk must match across substrates, not just the band.
    sim_sizes, run_sizes = _both("CSS(7)", parity_workload, 3)
    assert len(sim_sizes) == len(run_sizes)
    assert max(sim_sizes) == max(run_sizes) == 7


def test_uniform_workload_parity():
    _assert_counts_close(*_both("TSS", UniformWorkload(120), 4))


def test_runtime_wait_accounting_present(parity_workload):
    run = run_parallel("GSS", parity_workload, 3)
    waits = [s.t_wait for s in run.stats.values()]
    assert all(w >= 0.0 for w in waits)
    assert any(w > 0.0 for w in waits)
