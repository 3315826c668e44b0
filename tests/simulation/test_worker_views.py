"""A scheme that replaces its stepper sees the same requests on every path.

Every substrate asks through ``Scheduler.stepper(requester)``: the
requester describes the PE asking (``V_i`` and the run queue ``Q_i``),
and each request carries its ACP.  A stepper override that logs
``(wid, *requester(wid), acp)`` per sized request pins what it is
told, request by request, on a nondedicated heterogeneous cluster
whose run queues change faster than a chunk takes, behind a master NIC
slow enough that a request's send, its reaching the master's port and
its arrival through the NIC straddle load edges: ``Q_i`` is sampled at
the arrival, while the ACP of a distributed request was sampled when
the worker sent it.  Neither sampling instant may move, on the DES or
on the fast path.
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
    """TSS with a ``stepper`` that logs each sized request and
    delegates; as a ``distributed`` scheme its requests carry an ACP."""

    class Logged(TrapezoidScheduler):
        def stepper(self, requester):
            step = super().stepper(requester)

            def logged(wid, acp=None):
                got = step(wid, acp)
                if got is not None:
                    self.log.append((wid, *requester(wid), acp))
                return got

            return logged

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
