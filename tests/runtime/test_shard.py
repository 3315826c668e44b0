"""The one worker shard: its writer, its reader, and both merges.

Both real substrates append a worker's records to a per-incarnation
shard through :func:`repro.runtime.chassis.shard_writer` and read them
back after the join through :func:`repro.runtime.chassis.read_shard`.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import pickle
import tempfile
import threading

import numpy as np
from hypothesis import example, given, strategies as st

from repro.decentral import REPAIR_LANE, CounterChassis, run_decentral
from repro.obs import EVENT_KINDS, ObsEvent, capture
from repro.obs.export import event_line
from repro.runtime import run_parallel
from repro.runtime.chassis import ProcessChassis, read_shard, shard_writer
from repro.runtime.executor import PipeChassis
from repro.verify import audit_events
from repro.workloads import UniformWorkload

WL = UniformWorkload(size=200, unit=1e-5)

#: records per writer in the interleave test
N = 200


def _record(worker: int) -> tuple:
    # Sizes vary from tens of bytes to several KB, across the pipe
    # buffer's atomic limit, so a torn interleave could not hide.
    detail = "x" * (worker % 7 * 1000)
    return ("event", tuple(ObsEvent(
        "request", "runtime.worker", float(worker), worker, detail=detail,
    )))


def _pump(append, base: int) -> None:
    for i in range(N):
        append(_record(base + i))


def _pump_own_shard(path: str, base: int) -> None:
    with shard_writer(path) as append:
        _pump(append, base)


def test_threads_and_processes_append_whole_records(tmp_path):
    path = str(tmp_path / "shard")
    ctx = mp.get_context("fork")
    # Forked before any thread starts; each process opens its own
    # writer, the two threads share one (a worker's main loop and its
    # heartbeat thread).
    procs = [ctx.Process(target=_pump_own_shard, args=(path, 1000 * n))
             for n in (2, 3)]
    with shard_writer(path) as append:
        threads = [threading.Thread(target=_pump, args=(append, 1000 * n))
                   for n in (0, 1)]
        for proc in procs:
            proc.start()
        for thread in threads:
            thread.start()
        for worker in threads + procs:
            worker.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert [proc.exitcode for proc in procs] == [0, 0]
    records = read_shard(path)
    assert sorted(row[3] for _tag, row in records) == [
        1000 * n + i for n in range(4) for i in range(N)
    ]
    assert all(record == _record(record[1][3]) for record in records)


def _tear_after_join(monkeypatch, chassis_cls, cut):
    """Make ``chassis_cls``'s first join end by cutting one record of
    one shard mid-bytes.  ``cut(records)`` names the index of the
    record to tear in a shard (``None``: leave it whole).  Returns
    ``[whole records, in merge order]`` and ``[torn record]``, read
    with a scan of its own, not the reader under test."""
    whole: list = []
    torn: list = []
    join = ProcessChassis.join

    def join_then_tear(self) -> None:
        join(self)
        if whole or torn:
            return
        for name in sorted(os.listdir(self.workdir)):
            if not name.startswith("shard-"):
                continue
            path = os.path.join(self.workdir, name)
            ends, records = [0], []
            with open(path, "rb") as handle:
                data = handle.read()
            while ends[-1] < len(data):
                body = ends[-1] + 8
                end = body + int.from_bytes(data[ends[-1]:body], "big")
                records.append(pickle.loads(data[body:end]))
                ends.append(end)
            index = None if torn else cut(records)
            if index is None:
                whole.extend(records)
                continue
            os.truncate(path, (ends[index] + ends[index + 1]) // 2)
            whole.extend(records[:index])
            torn.append(records[index])

    monkeypatch.setattr(chassis_cls, "join", join_then_tear)
    return whole, torn


def test_runtime_merge_keeps_every_whole_event_of_a_torn_shard(
    monkeypatch,
):
    whole, torn = _tear_after_join(monkeypatch, PipeChassis,
                                   lambda records: len(records) - 1)
    with capture() as trace:
        run_parallel("TSS", WL, 2, collector=trace)
    assert len(torn) == 1 and torn[0][0] == "event"
    workers = [ev for ev in trace.events if ev.source == "runtime.worker"]
    assert workers == [ObsEvent._make(record[1]) for record in whole
                       if record[0] == "event"]
    assert ObsEvent._make(torn[0][1]) not in workers


def test_decentral_merge_repairs_the_chunk_a_torn_record_lost(monkeypatch):
    def last_chunk(records):
        chunks = [i for i, r in enumerate(records)
                  if r[0] == "round" and r[3] is not None]
        return chunks[-1] if chunks else None

    _whole, torn = _tear_after_join(monkeypatch, CounterChassis,
                                    last_chunk)
    with capture() as trace:
        res = run_decentral("TSS", WL, 2, collector=trace)
    (_tag, _wait, _compute, start, stop, *_claim), = torn
    assert res.recovered == 1
    assert (REPAIR_LANE, start, stop) in res.chunks
    np.testing.assert_array_equal(res.results, WL.execute_serial())
    repairs = [(ev.start, ev.stop) for ev in trace.events
               if ev.kind == "repair"]
    assert repairs == [(start, stop)]
    audit_events(trace.events, total=WL.size, scheme="TSS",
                 workers=2).raise_if_failed()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_OPT_INT = st.none() | st.integers(-2**70, 2**70)
_EVENTS = st.builds(
    ObsEvent,
    kind=st.sampled_from(sorted(EVENT_KINDS)),
    source=st.text(),
    t=_FINITE,
    worker=st.integers(-1, 2**40),
    start=_OPT_INT,
    stop=_OPT_INT,
    stage=_OPT_INT,
    acp=_OPT_INT,
    value=st.none() | _FINITE,
    detail=st.text(),
    wall=st.none() | _FINITE,
)


@given(ev=_EVENTS)
def test_a_record_reads_back_as_the_jsonl_shard_delivered_it(ev):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "shard")
        with shard_writer(path) as append:
            append(("event", tuple(ev)))
        (tag, row), = read_shard(path)
    assert tag == "event" and type(row) is tuple
    assert ObsEvent._make(row) == ev
    assert ev == ObsEvent.from_dict(json.loads(event_line(ev)))


#: Records of the kinds a shard holds: events and rounds.
_RECORDS = st.lists(
    st.builds(lambda ev: ("event", tuple(ev)), _EVENTS)
    | st.tuples(st.just("round"), _FINITE, _FINITE, _OPT_INT, _OPT_INT),
    max_size=5,
)


@given(records=_RECORDS, tail=st.binary(max_size=64))
@example(records=[("round", 0.5, 0.25, 0, 8)],
         tail=b"\x8e" + (2**63).to_bytes(8, "little"))
@example(records=[("round", 0.5, 0.25, 0, 8)],
         tail=b"\x8e" + (2**40).to_bytes(8, "little"))
@example(records=[], tail=(3).to_bytes(8, "big") + b"\x80\x05N")
def test_any_tail_after_whole_records_reads_them_back(records, tail):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "shard")
        with shard_writer(path) as append:
            for record in records:
                append(record)
        with open(path, "ab") as handle:
            handle.write(tail)
        read = read_shard(path)
    assert read[:len(records)] == records


def test_records_come_in_numeric_worker_and_incarnation_order():
    order = [(7, 0), (7, 99), (7, 100), (999, 0), (1000, 0), (1000, 2)]
    with ProcessChassis(1001) as chassis:
        for wid, incarnation in reversed(order):
            chassis.incarnations[wid] = incarnation
            with shard_writer(chassis.shard_path(wid)) as append:
                append(("event", (wid, incarnation)))
        assert [record[1] for _wid, record in chassis.records()] == order
        assert [wid for wid, _record in chassis.records()] == \
            [wid for wid, _incarnation in order]
