"""A real worker's books: one fold over the rounds its shards hold.

Both real substrates book each served round -- a runtime request that
got its answer, a decentral claim -- as one ``round`` record in the
worker incarnation's shard, and fill ``.stats`` from
:func:`repro.runtime.chassis.worker_books` over every incarnation's
whole records.  A SIGKILLed or restarted incarnation's work therefore
stays booked.
"""

from __future__ import annotations

import collections
import os

from hypothesis import given, strategies as st

from repro.chaos import FaultPlan, WorkerDeath, WorkerRestart
from repro.decentral import REPAIR_LANE, run_decentral
from repro.runtime import run_parallel
from repro.runtime.chassis import ProcessChassis, shard_writer, worker_books
from repro.simulation.metrics import WorkerMetrics
from repro.workloads import SpinWorkload

_SECONDS = st.floats(0.0, 10.0, allow_nan=False)
_SPAN = st.tuples(st.integers(0, 1000), st.integers(1, 50)).map(
    lambda span: (span[0], span[0] + span[1]))
_ROUNDS = st.lists(
    st.tuples(_SECONDS, _SECONDS, st.none() | _SPAN).map(
        lambda r: ("round", r[0], r[1],
                   *(r[2] if r[2] is not None else (None, None)))),
    max_size=6,
)
#: worker id -> the record lists of its incarnations, each with the
#: fraction of its file left when it is cut
_SHARDS = st.dictionaries(
    st.integers(0, 3),
    st.lists(st.tuples(_ROUNDS, st.floats(0.0, 1.0)), min_size=1,
             max_size=3),
    max_size=3,
)


@given(shards=_SHARDS)
def test_the_fold_books_every_whole_round_of_every_incarnation(shards):
    expected: dict[int, WorkerMetrics] = {}
    with ProcessChassis(4) as chassis:
        for wid, incarnations in sorted(shards.items()):
            for incarnation, (rounds, keep) in enumerate(incarnations):
                chassis.incarnations[wid] = incarnation
                path = chassis.shard_path(wid)
                ends = []
                with shard_writer(path) as append:
                    # An event record between rounds is not booked.
                    append(("event", ("heartbeat",)))
                    for record in rounds:
                        append(record)
                        ends.append(os.path.getsize(path))
                cut = int(keep * os.path.getsize(path))
                os.truncate(path, cut)
                for record, end in zip(rounds, ends):
                    if end > cut:
                        break
                    cells = expected.setdefault(
                        wid, WorkerMetrics(f"w{wid}"))
                    _tag, wait, compute, start, stop = record
                    cells.t_wait += wait
                    cells.t_comp += compute
                    if start is not None:
                        cells.chunks += 1
                        cells.iterations += stop - start
        assert worker_books(list(chassis.records())) == expected


#: The two reproductions: wall-clock plans on a loop of a few tens of
#: milliseconds, so a kill may land anywhere in it, or after it.
SPIN = SpinWorkload(60, spins=50, veclen=4096)


def _tee_records(monkeypatch) -> list:
    """Every ``(worker_id, record)`` the run's merge reads."""
    seen: list = []
    records = ProcessChassis.records

    def tee(self):
        for item in records(self):
            seen.append(item)
            yield item

    monkeypatch.setattr(ProcessChassis, "records", tee)
    return seen


def _assert_booked(run) -> collections.Counter:
    credited = collections.Counter(wid for wid, _s, _e in run.chunks)
    for wid, count in credited.items():
        if wid != REPAIR_LANE:
            assert run.stats[wid].chunks >= count, (wid, run.stats)
    for wid, cells in run.stats.items():
        assert cells.name == f"w{wid}"
        assert cells.t_com == 0.0 and cells.finished_at == 0.0
    return credited


def test_a_killed_and_restarted_runtime_incarnation_stays_booked(
    monkeypatch,
):
    seen = _tee_records(monkeypatch)
    plan = FaultPlan(events=(WorkerDeath(worker=1, at=0.05),
                             WorkerRestart(worker=1, at=0.1)))
    run = run_parallel("SS", SPIN, 3, plan=plan)
    _assert_booked(run)
    assert worker_books(seen) == run.stats


def test_a_killed_decentral_incarnation_stays_booked(monkeypatch):
    seen = _tee_records(monkeypatch)
    plan = FaultPlan(events=(WorkerDeath(worker=1, at=0.05),))
    run = run_decentral("SS", SPIN, 3, plan=plan)
    _assert_booked(run)
    recorded = collections.Counter(
        wid for wid, record in seen
        if record[0] == "round" and record[3] is not None
    )
    assert {wid: cells.chunks for wid, cells in run.stats.items()
            if cells.chunks} == dict(recorded)
    assert run.global_ops == sum(
        1 for _wid, record in seen if record[0] == "round")


def test_fault_free_books_account_every_chunk_and_round():
    run = run_parallel("TSS", SPIN, 3)
    assert _assert_booked(run) == collections.Counter(
        {wid: cells.chunks for wid, cells in run.stats.items()
         if cells.chunks})
    assert sum(cells.iterations for cells in run.stats.values()) \
        == SPIN.size
    assert all(cells.t_wait > 0.0 for cells in run.stats.values())
