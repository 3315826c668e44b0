"""A hook-driven scheme sees the same ``WorkerView`` on every path.

A scheme that overrides ``_chunk_size`` is asked through the object
protocol: the scheduler's stepper builds one ``WorkerView`` per request
from the substrate's description of the PE (``V_i`` and the run queue
``Q_i``) plus the ACP the request carries.  The views are pinned here,
request by request, on a nondedicated heterogeneous cluster whose run
queues change faster than a chunk takes, behind a master NIC slow
enough that a request's send, its reaching the master's port and its
arrival through the NIC straddle load edges: ``Q_i`` is sampled at the
arrival, while the ACP of a distributed request was sampled when the
worker sent it.  Moving the view's construction must not move either
sampling instant, on the DES or on the fast path.
"""

from __future__ import annotations

import pytest

from repro.core.trapezoid import TrapezoidScheduler
from repro.simulation import ClusterSpec, NodeSpec, simulate
from repro.workloads import GaussianPeakWorkload

from tests.conftest import square_wave

#: ``(worker_id, virtual_power, run_queue, acp)`` of every sized request.
SIMPLE = [
    (0, 1.0, 2, None), (1, 1.75, 1, None), (2, 2.5, 1, None),
    (1, 1.75, 1, None), (0, 1.0, 2, None), (2, 2.5, 4, None),
    (2, 2.5, 1, None), (2, 2.5, 1, None), (2, 2.5, 1, None),
    (2, 2.5, 4, None), (2, 2.5, 1, None), (2, 2.5, 1, None),
    (2, 2.5, 4, None), (2, 2.5, 1, None), (2, 2.5, 1, None),
]
DISTRIBUTED = [
    (0, 1.0, 2, 5), (1, 1.75, 1, 17), (2, 2.5, 1, 25), (1, 1.75, 1, 17),
    (0, 1.0, 2, 10), (2, 2.5, 4, 6), (2, 2.5, 1, 25), (2, 2.5, 1, 25),
    (2, 2.5, 1, 25), (2, 2.5, 4, 6), (2, 2.5, 1, 25), (2, 2.5, 1, 25),
    (2, 2.5, 4, 6), (2, 2.5, 1, 25), (2, 2.5, 1, 25),
]


def cluster() -> ClusterSpec:
    return ClusterSpec(nodes=[
        NodeSpec(name=f"n{i}", speed=40.0 + 25.0 * i,
                 latency=1e-3 * (1 + i), bandwidth=2.0e5 * (1 + i),
                 load=square_wave(0.05 + 0.02 * i, 2 + i, 0.01 * i,
                                  horizon=4.0),
                 virtual_power=1.0 + 0.75 * i)
        for i in range(3)
    ], master_service=1e-3, master_bandwidth=2e4)


def logging_tss(distributed: bool) -> TrapezoidScheduler:
    """TSS with a pass-through ``_chunk_size`` that logs its view; as a
    ``distributed`` scheme its requests carry an ACP."""

    class Logged(TrapezoidScheduler):
        def _chunk_size(self, worker):
            self.log.append((worker.worker_id, worker.virtual_power,
                             worker.run_queue, worker.acp))
            return super()._chunk_size(worker)

    Logged.distributed = distributed
    scheduler = Logged(60, 3)
    scheduler.log = []
    return scheduler


@pytest.mark.parametrize("fast", [False, True], ids=["des", "fast"])
@pytest.mark.parametrize("distributed, expected", [
    (False, SIMPLE), (True, DISTRIBUTED),
], ids=["simple", "distributed"])
def test_a_hook_driven_scheme_sees_the_pinned_views(
    distributed, expected, fast
):
    scheduler = logging_tss(distributed)
    result = simulate(scheduler, GaussianPeakWorkload(60, amplitude=5.0),
                      cluster(), fast=fast)
    assert scheduler.log == expected
    assert len(result.chunks) == len(expected)
