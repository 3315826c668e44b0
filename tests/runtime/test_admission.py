"""Paper step 1(a) on real processes: the Sec. 5.2 example.

With ``V = (1, 3)``, ``Q = (2, 3)`` and ``AcpModel(10, a_min=6)`` the
PEs' ACPs are ``(5, 10)``: the first sits the computation out and the
master derives the schedule over ``A = 10``.  The real runtime must
screen and register exactly as the master DES does -- before the first
assignment -- so the admitted PE gets the DES's chunks, all of them.
"""

from __future__ import annotations

import time

import pytest

from repro.core.acp import AcpModel
from repro.runtime import WorkerSpec, run_parallel
from repro.simulation import (
    ClusterSpec,
    ConstantLoad,
    NodeSpec,
    StarvationError,
    simulate,
)
from repro.workloads import UniformWorkload

SPECS = [WorkerSpec(virtual_power=1.0, run_queue=2),
         WorkerSpec(virtual_power=3.0, run_queue=3)]
MODEL = AcpModel(scale=10, a_min=6)


def des_chunks(scheme: str) -> list[tuple[int, int, int]]:
    cluster = ClusterSpec(nodes=[
        NodeSpec(name=f"n{i}", speed=100.0, load=ConstantLoad(spec.run_queue),
                 virtual_power=spec.virtual_power)
        for i, spec in enumerate(SPECS)
    ])
    result = simulate(scheme, UniformWorkload(1000), cluster,
                      acp_model=MODEL)
    return [(c.worker, c.start, c.stop) for c in result.chunks]


@pytest.mark.parametrize("scheme, first", [("DTSS", 441), ("DFSS", 500)])
def test_the_screened_pe_computes_nothing(scheme, first):
    run = run_parallel(scheme, UniformWorkload(1000), 2, specs=SPECS,
                       acp_model=MODEL)
    assert run.chunks[0] == (1, 0, first)
    assert run.chunks == des_chunks(scheme)
    assert sum(stop - start for _w, start, stop in run.chunks) == 1000
    assert {w for w, _start, _stop in run.chunks} == {1}
    assert 0 not in run.stats or run.stats[0].iterations == 0


def test_no_admitted_pe_fails_at_once():
    started = time.monotonic()
    with pytest.raises(StarvationError):
        run_parallel("DTSS", UniformWorkload(100), 2, specs=SPECS,
                     acp_model=AcpModel(scale=10, a_min=40))
    # Every worker is answered, so none is left for the join timeout.
    assert time.monotonic() - started < 10.0
