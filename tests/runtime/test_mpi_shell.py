"""``mpi_master`` driven offline, through a scripted ``comm`` and ``mpi``.

The MPI master is a shell around :class:`repro.core.master.MasterState`:
these tests run it without mpi4py, three ranks (the master and two
slaves), and hold its replies to a fresh scheduler's stepper replayed
over the same requests.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import make
from repro.core.acp import IMPROVED_ACP
from repro.runtime.mpi import (
    TAG_ASSIGN,
    TAG_REQUEST,
    TAG_TERMINATE,
    mpi_master,
)
from repro.workloads import UniformWorkload

TOTAL = 120
#: rank -> virtual power; the run queue of rank r's k-th request is
#: 1 + (r + k) % 3, so a D-scheme sees its ACPs move.
POWERS = {1: 2.0, 2: 1.0}


class _Status(object):
    def __init__(self) -> None:
        self.source = -1

    def Get_source(self) -> int:
        return self.source


class FakeMpi(object):
    ANY_SOURCE = -1
    ANY_TAG = -1
    Status = _Status


class ScriptedComm(object):
    """Rank 0's communicator; the slaves are scripted in-process.

    Requests are served first come, first served: the slaves' first
    requests in rank order, then each slave's next one queued behind
    the others when its reply is sent.  ``log`` records every request
    served, as ``(wid, acp, (V_i, Q_i))``, and every reply, as
    ``(rank, tag, payload)``.
    """

    def __init__(self, workload, distributed: bool) -> None:
        self.workload = workload
        self.distributed = distributed
        self.asked = {rank: 0 for rank in POWERS}
        self.queue = [(rank, None) for rank in POWERS]
        self.requests: list[tuple[int, object, tuple[float, int]]] = []
        self.replies: list[tuple[int, int, object]] = []

    def Get_size(self) -> int:
        return len(POWERS) + 1

    def _message(self, rank: int, result) -> dict:
        power = POWERS[rank]
        run_queue = 1 + (rank + self.asked[rank]) % 3
        self.asked[rank] += 1
        acp = (
            IMPROVED_ACP.acp(power, run_queue) if self.distributed else None
        )
        self.requests.append((rank - 1, acp, (power, run_queue)))
        return {"result": result, "acp": acp, "virtual_power": power,
                "run_queue": run_queue}

    def recv(self, source, tag, status):
        assert source == FakeMpi.ANY_SOURCE and tag == TAG_REQUEST
        rank, result = self.queue.pop(0)
        status.source = rank
        return self._message(rank, result)

    def send(self, payload, dest, tag):
        self.replies.append((dest, tag, payload))
        if tag == TAG_ASSIGN:
            start, stop = payload
            self.queue.append(
                (dest, (start, self.workload.execute(start, stop)))
            )
        else:
            assert tag == TAG_TERMINATE and payload is None


@pytest.mark.parametrize("scheme", ["TSS", "FSS", "DFSS"])
def test_mpi_master_serves_the_stepper_replay(scheme):
    workload = UniformWorkload(TOTAL)
    scheduler = make(scheme, TOTAL, len(POWERS))
    comm = ScriptedComm(workload, scheduler.distributed)
    pairs = mpi_master(scheduler, comm, FakeMpi())

    # The same requests, asked of a fresh scheduler's stepper.
    reference = make(scheme, TOTAL, len(POWERS))
    view: dict[int, tuple[float, int]] = {}
    step = reference.stepper(view.__getitem__)
    expected = []
    for wid, acp, reported in comm.requests:
        view[wid] = reported
        chunk = step(wid, acp)
        expected.append(
            (wid + 1, TAG_TERMINATE, None) if chunk is None
            else (wid + 1, TAG_ASSIGN, chunk[:2])
        )
    assert comm.replies == expected
    if scheduler.distributed:
        assert any(acp != comm.requests[0][1]
                   for _w, acp, _r in comm.requests)

    terminated = [rank for rank, tag, _p in comm.replies
                  if tag == TAG_TERMINATE]
    assert sorted(terminated) == sorted(POWERS)

    starts = [start for start, _payload in pairs]
    assert starts == sorted(starts)
    assert sum(len(p) for _s, p in pairs) == TOTAL
    np.testing.assert_array_equal(
        np.concatenate([p for _s, p in pairs]), workload.execute(0, TOTAL)
    )
