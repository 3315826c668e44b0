"""The fast path's trace length: the events the DES would have emitted.

A fast run emits no trace, yet a service reply still reports
``events_emitted``.  The fast loops set ``SimResult.trace_length`` from
the engine's ``TRACE_PER_CHUNK`` / ``TRACE_PER_PE`` and the run's
participants.  Every case here runs one job twice -- fast and
unobserved, then observed on the DES -- and holds that count to the
length of the real trace: the full registry x three load shapes x
master / decentral (flat and leased) x 1..16 PEs, runs with more PEs
than chunks, and a PE screened out by ``A_min``.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.core import names
from repro.core.acp import AcpModel
from repro.decentral import DECENTRAL_SCHEMES, simulate_decentral
from repro.obs import BufferedCollector
from repro.simulation import (
    ClusterSpec,
    ConstantLoad,
    NodeSpec,
    RandomLoad,
    simulate,
)
from repro.workloads import GaussianPeakWorkload

from tests.conftest import square_wave

#: The loop every case runs: 48 iterations, so CSS-sized chunks leave
#: PEs without work at the top of the P range.
WORKLOAD = GaussianPeakWorkload(48, amplitude=6.0)

#: Refused by the gate, so never fast (the adaptive meta-scheduler).
_FAST_SCHEMES = [n for n in names() if n != "ADAPTIVE"]

LOAD_SHAPES = ("const", "random", "periodic")


def _cluster(p: int, shape: str, **node_kwargs) -> ClusterSpec:
    nodes = []
    for i in range(p):
        if shape == "const":
            load = ConstantLoad(1 + i % 2)
        elif shape == "random":
            load = RandomLoad(seed=11 + i)
        else:
            load = square_wave(0.05, 3, 0.007 * i, horizon=50.0)
        nodes.append(NodeSpec(
            name=f"n{i}", speed=400.0 + 37.0 * i,
            latency=1e-4 * (1 + i % 3), load=load,
            virtual_power=1.0 + 0.5 * (i % 3), **node_kwargs,
        ))
    return ClusterSpec(nodes=nodes, master_service=2e-4)


def _assert_counts(run) -> int:
    """``run(fast=..., ...)`` twice: the fast run's ``trace_length`` is
    the observed DES run's trace length.  Returns the chunk count."""
    fast = run(fast=True)
    trace = BufferedCollector()
    des = run(fast=False, collector=trace)
    assert fast.chunks == des.chunks
    assert fast.trace_length == len(trace.events)
    assert des.trace_length is None
    return len(fast.chunks)


@pytest.mark.parametrize("shape", LOAD_SHAPES)
@pytest.mark.parametrize("scheme", _FAST_SCHEMES)
def test_master_trace_length(scheme, shape):
    for p in range(1, 17):
        cluster = _cluster(p, shape)
        _assert_counts(partial(simulate, scheme, WORKLOAD, cluster))


@pytest.mark.parametrize("leased", [False, True])
@pytest.mark.parametrize("shape", LOAD_SHAPES)
@pytest.mark.parametrize("scheme", sorted(DECENTRAL_SCHEMES))
def test_decentral_trace_length(scheme, shape, leased):
    for p in range(1, 17):
        cluster = _cluster(p, shape)
        mode = {"group_size": max(1, p // 2), "lease": 3} if leased \
            else {}
        _assert_counts(partial(
            simulate_decentral, scheme, WORKLOAD, cluster, **mode
        ))


@pytest.mark.parametrize("engine", ["master", "decentral"])
def test_more_pes_than_chunks(engine):
    cluster = _cluster(16, "const")
    sim = simulate if engine == "master" else simulate_decentral
    chunks = _assert_counts(partial(sim, "CSS(20)", WORKLOAD, cluster))
    assert chunks < cluster.size


@pytest.mark.parametrize("scheme", ["DTSS", "DFSS", "DFISS", "DTFSS"])
def test_a_pe_screened_out_by_a_min_counts_nothing(scheme):
    """The count is per participant, not per node: three of five PEs
    (ACPs 10, 7 and 5 against 20 and 15) sit below ``A_min``, never
    ask and emit nothing."""
    cluster = _cluster(5, "const")
    model = AcpModel(scale=10, a_min=12)
    run = partial(simulate, scheme, WORKLOAD, cluster, acp_model=model)
    _assert_counts(run)
    idle = [w for w in run(fast=True).workers if w.chunks == 0]
    assert len(idle) == 3
