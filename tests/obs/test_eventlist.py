"""``EventList``: a trace kept as one flat list of its events' fields
reads as the ``ObsEvent`` list it stands for, keeps no container per
event, and the digest and the wire text never build an event.

A row is the eleven :class:`ObsEvent` fields as a plain tuple -- what
the per-chunk DES sites emit.  The property tests hold an
``EventList`` over random rows (mixed with ``ObsEvent`` objects,
which are rows too) to the list of events it stands for; the rest
runs real jobs and every ``golden_des.json`` case, and pins the
trace's row of the count table: one tracked container per kept trace,
no event built by the positional readers, no collection over a set of
kept observed runs.
"""

from __future__ import annotations

import collections
import gc
import hashlib
import json
import pickle
import socket
import threading
from itertools import chain

import numpy as np
import orjson
import pytest
from hypothesis import given, strategies as st

from repro.batch import SimJob
from repro.chaos import FaultPlan, MessageDelay, WorkerDeath
from repro.obs import (
    EVENT_KINDS,
    LIFECYCLE_KINDS,
    SOURCES,
    BufferedCollector,
    EventList,
    ObsEvent,
    SchemaError,
    canonical_stream,
    events_json,
    stream_digest,
)
from repro.obs import export
from repro.obs.export import json_bytes
from repro.service import ServiceClient
from repro.service.jobs import job_from_spec
from repro.service.pool import _execute_body
from repro.service.protocol import recv_frame, send_frame
from repro.simulation import SimulationError
from repro.workloads import GaussianPeakWorkload, UniformWorkload

from ..conftest import make_cluster
from ..simulation.test_des_oracle import CASES, run_case

_opt_int = st.none() | st.integers(min_value=0, max_value=10**6)
_opt_float = st.none() | st.floats(min_value=0.0, max_value=1e6)

_rows = st.tuples(
    st.sampled_from(sorted(EVENT_KINDS)),
    st.sampled_from(sorted(SOURCES)),
    st.floats(min_value=0.0, max_value=1e6),
    st.integers(min_value=-1, max_value=64),
    _opt_int, _opt_int, _opt_int, _opt_int,
    _opt_float,
    st.text(max_size=8),
    _opt_float,
)

#: Rows, some already ``ObsEvent`` objects (the rare emission sites).
_mixed = st.lists(
    st.tuples(_rows, st.booleans()).map(
        lambda pair: ObsEvent._make(pair[0]) if pair[1] else pair[0]
    ),
    max_size=30,
)

#: Slices of every shape: empty, reversed, strided, clipped.
_SLICES = [slice(None), slice(1, -1, 2), slice(None, None, -1),
           slice(None, None, 3), slice(-2, None), slice(5, 2),
           slice(-100, 100), slice(3, None, -2)]


def _wire_text(events: list) -> bytes:
    """``events_json``'s definition over ``ObsEvent`` objects: their
    fields as plain tuples, written by the bulk writer with the float
    columns it checks."""
    return json_bytes(
        [tuple(ev) for ev in events],
        ([ev.t for ev in events],
         [ev.value for ev in events if ev.value],
         [ev.wall for ev in events if ev.wall]),
    )


def _digest_by_definition(events: list) -> str:
    canonical = "\n".join(
        json.dumps(row, sort_keys=True) for row in canonical_stream(events)
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: Every read of a trace ``x``, for an ``EventList`` and for the list
#: of events it stands for alike.
READS = {
    "len": len,
    "bool": bool,
    "iter": list,
    "index": lambda x: [x[i] for i in range(-len(x), len(x))],
    "slice": lambda x: [x[s] for s in _SLICES],
    "repr": repr,
    "rows": lambda x: x.rows() if isinstance(x, EventList)
    else [tuple(ev) for ev in x],
    "digest": stream_digest,
    "wire": events_json,
}


def _outcome(read, trace) -> tuple:
    """What ``read(trace)`` gives, or the type of what it raises (the
    digest of a ``result`` event with no stop raises, both ways)."""
    try:
        return True, read(trace)
    except Exception as exc:  # noqa: BLE001 - compared, not hidden
        return False, type(exc)


@given(_mixed)
def test_reads_exactly_like_the_event_list(rows):
    """Each read equals the same read of the events, builds exact
    ``ObsEvent``s (plain tuples from ``rows()``), and leaves the store
    at exactly eleven fields per event."""
    events = EventList(list(rows))
    expected = [ObsEvent._make(row) for row in rows]
    for name, read in READS.items():
        assert _outcome(read, events) == _outcome(read, expected), name
        assert len(events.flat()) == 11 * len(expected), name
    assert all(type(ev) is ObsEvent for ev in events)
    assert all(type(ev) is ObsEvent
               for s in _SLICES for ev in events[s])
    assert all(type(row) is tuple for row in events.rows())
    for i in (len(expected), -len(expected) - 1):
        with pytest.raises(IndexError):
            events[i]
    done, digest = _outcome(stream_digest, events)
    if done:  # a ``result`` with no stop has no digest, both ways
        assert digest == _digest_by_definition(expected)
    assert events_json(events) == _wire_text(expected)


@given(_mixed)
def test_equality_holds_both_ways(rows):
    expected = [ObsEvent._make(row) for row in rows]
    assert EventList(list(rows)) == expected
    assert expected == EventList(list(rows))
    assert EventList(list(rows)) == EventList(list(rows))
    longer = expected + [ObsEvent("request", "sim.master", 0.0)]
    assert EventList(list(rows)) != longer
    assert longer != EventList(list(rows))
    assert EventList(list(rows)) != EventList(list(longer))


@given(_mixed, st.booleans())
def test_pickles_as_rows(rows, read_first):
    """It pickles as its flat list, read or not."""
    events = EventList(list(rows))
    if read_first:
        list(events)
    assert events.__reduce__() == (EventList.of_flat, (events.flat(),))
    back = pickle.loads(pickle.dumps(events))
    assert type(back) is EventList
    assert back.flat() == events.flat()
    assert all(type(row) is tuple for row in back.rows())
    assert back == [ObsEvent._make(row) for row in rows]


#: Rows whose floats may be NaN or infinite, or numpy scalars: the
#: wire text falls back from orjson's bytes for them.
_wild_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=0.0, max_value=1e6).map(np.float64),
)
_wild_rows = st.builds(
    lambda row, t, value, wall: (*row[:2], t, *row[3:8], value, row[9],
                                 wall),
    _rows, _wild_floats, st.none() | _wild_floats,
    st.none() | _wild_floats,
)


@pytest.mark.parametrize("per_batch", [1, 3, 256])
@given(rows=st.lists(_rows | _wild_rows, max_size=12))
def test_wire_text_in_batches_is_the_text_of_the_whole(per_batch, rows):
    """``events_json`` encodes a batch of rows per orjson call; its
    bytes are those of the whole trace in one call, orjson's or the
    fallback's, however the batches fall."""
    expected = [ObsEvent._make(row) for row in rows]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(export, "ROWS_PER_BATCH", per_batch)
        text = events_json(EventList(list(rows)))
    assert text == _wire_text(expected)


#: Every read, on an ``EventList`` only.
_STORE_READS = dict(READS, flat=EventList.flat,
                    eq=lambda x: x == [], eq_self=lambda x: x == x)


@pytest.mark.parametrize("read", sorted(_STORE_READS))
@given(rows=_mixed, extra=st.lists(st.none(), min_size=1, max_size=10))
def test_a_store_of_the_wrong_length_raises_at_every_read(read, rows,
                                                         extra):
    flat = list(chain.from_iterable(rows)) + extra
    with pytest.raises(SchemaError):
        _STORE_READS[read](EventList.of_flat(flat))


@pytest.mark.parametrize("width", [1, 10, 12])
@given(rows=_mixed, row=_rows)
def test_a_row_of_the_wrong_width_is_refused_when_listed(width, rows, row):
    bad = (row + (None,))[:width]
    with pytest.raises(SchemaError):
        EventList([*rows, bad])
    # The writer checks nothing; the store's length does, at read.
    events = EventList(list(rows))
    events.sink()(bad)
    with pytest.raises(SchemaError):
        len(events)


#: Chunk-level kinds: one event (or more) per chunk.
_CHUNK_KINDS = LIFECYCLE_KINDS | {"fetch-add"}


def _count_events(monkeypatch) -> collections.Counter:
    """Count, by kind, every ``ObsEvent`` built and (under the key
    ``"to_dict"``) every ``ObsEvent.to_dict`` call, until undone."""
    built: collections.Counter = collections.Counter()
    new, make, to_dict = ObsEvent.__new__, ObsEvent._make, ObsEvent.to_dict

    def counting_new(cls, *args, **kwargs):
        event = new(cls, *args, **kwargs)
        built[event.kind] += 1
        return event

    def counting_make(cls, iterable):
        event = make(iterable)
        built[event.kind] += 1
        return event

    def counting_to_dict(event):
        built["to_dict"] += 1
        return to_dict(event)

    monkeypatch.setattr(ObsEvent, "__new__", counting_new)
    monkeypatch.setattr(ObsEvent, "_make", classmethod(counting_make))
    monkeypatch.setattr(ObsEvent, "to_dict", counting_to_dict)
    return built


@pytest.mark.parametrize("engine", ["master", "decentral", "tree"])
def test_digest_and_wire_text_build_no_chunk_event(engine, monkeypatch):
    built = _count_events(monkeypatch)
    job = SimJob(
        "TSS", GaussianPeakWorkload(300, amplitude=6.0),
        make_cluster(), engine=engine, collect_events=True,
    )
    events = job.run().obs_events
    assert not _CHUNK_KINDS & set(built), built
    built.clear()
    digest, text = stream_digest(events), events_json(events)
    # The positional readers build no event at all.
    assert not built, built
    assert len(events.flat()) == 11 * len(events)

    monkeypatch.undo()
    assert digest == stream_digest(list(events))
    assert text == events_json(list(events))


@pytest.mark.parametrize("substrate,fault", CASES)
def test_rows_give_the_events_digest_and_wire_text(substrate, fault):
    """Every ``golden_des.json`` case: the digest and the
    ``events_json`` text written from the flat store equal, byte for
    byte, their definitions over the ``ObsEvent`` list it reads as."""
    collector = BufferedCollector()
    try:
        run_case(substrate, fault, collector)
    except SimulationError:
        pass  # compare what was emitted before the error
    events = collector.events
    digest, text = stream_digest(events), events_json(events)

    materialized = list(events)
    assert all(type(ev) is ObsEvent for ev in materialized)
    assert len(events.flat()) == 11 * len(materialized)
    assert digest == _digest_by_definition(materialized)
    assert digest == stream_digest(materialized)
    assert text == _wire_text(materialized)
    assert text == events_json(materialized)
    assert json.loads(text) == [list(ev) for ev in materialized]


#: A traced service job per engine, chaos included: the fault events
#: and ``terminate`` are ``ObsEvent`` objects among the rows.
_TRACED = {
    "scheme": "TSS",
    "workload": {"kind": "gaussian-peak", "size": 300, "amplitude": 6.0},
    "cluster": {"workers": 3},
    "chaos": FaultPlan(events=(
        WorkerDeath(worker=1, at=0.02),
        MessageDelay(worker=2, at=0.0, delay=0.01),
    )).to_json(),
}


@pytest.mark.parametrize("engine", ["master", "decentral", "tree"])
def test_a_traced_reply_body_calls_no_to_dict(engine, monkeypatch):
    """The pool worker writes a traced reply from the rows: no
    ``to_dict`` call, and no event built for a DES-emitted row."""
    spec = dict(_TRACED, engine=engine)
    built = _count_events(monkeypatch)
    digest, body = _execute_body(spec, False, True)
    assert digest is not None, body
    shipped = orjson.loads(body)["trace"]
    assert built["to_dict"] == 0, built
    assert not _CHUNK_KINDS & set(built), built
    assert built["fault"] > 0  # the plan fired, as an event among rows

    monkeypatch.undo()
    one_shot = job_from_spec(spec).run().obs_events
    assert shipped == [list(ev) for ev in one_shot]


class _Peer(object):
    """One end of a socketpair standing in for the daemon: it answers
    every request with ``envelope``, its ``seq`` set to the request's,
    and a ``wait`` with ``body`` behind it, in a frame of its own, as
    the daemon answers a finished job's."""

    def __init__(self, envelope: dict, body: dict) -> None:
        mine, self.sock = socket.socketpair()
        mine.settimeout(10.0)
        self._envelope, self._body = envelope, body
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        self.client = ServiceClient(mine, tenant="alice")

    def _serve(self) -> None:
        try:
            while (doc := recv_frame(self.sock)) is not None:
                send_frame(self.sock, dict(self._envelope, seq=doc["seq"]))
                if doc["op"] == "wait":
                    send_frame(self.sock, self._body)
        except OSError:
            return  # closed by the test

    def close(self) -> None:
        self.client.close()
        self.sock.close()
        self._thread.join(timeout=5.0)


def test_wait_builds_no_event_until_the_trace_is_read(monkeypatch):
    events = SimJob(
        "TSS", GaussianPeakWorkload(300, amplitude=6.0),
        make_cluster(), collect_events=True,
    ).run().obs_events
    expected = list(events)
    peer = _Peer({"ok": True, "state": "done",
                  "digest": stream_digest(events)},
                 {"trace": json.loads(events_json(events))})
    built = _count_events(monkeypatch)
    try:
        reply = peer.client.wait("alice-000001", timeout=5.0)
    finally:
        peer.close()
    trace = reply["trace"]
    assert type(trace) is EventList
    assert len(trace) == len(expected)
    assert stream_digest(trace) == reply["digest"]
    assert not built, built
    assert list(trace) == expected
    assert sum(built.values()) == len(expected)


# -- the trace's row of the count table ------------------------------------

def _observed_tss(size: int) -> SimJob:
    return SimJob("TSS", UniformWorkload(size), make_cluster(),
                  collect_events=True)


@pytest.mark.parametrize("engine", ["master", "decentral", "tree"])
def test_a_kept_trace_is_one_tracked_container(engine):
    """Whatever its event count, a kept trace holds one object the
    cyclic collector tracks -- its flat list -- and no field of it is
    tracked."""
    for size in (200, 2000):
        events = SimJob(
            "TSS", UniformWorkload(size), make_cluster(), engine=engine,
            collect_events=True,
        ).run().obs_events
        flat = events.flat()
        tracked = [ref for ref in gc.get_referents(events)
                   if gc.is_tracked(ref) and ref is not EventList]
        assert len(tracked) == 1 and tracked[0] is flat
        assert not any(map(gc.is_tracked, flat))
        list(events), events.rows(), events[::2]  # reads keep nothing
        assert len(flat) == 11 * len(events)
        assert not any(map(gc.is_tracked, flat))


def test_kept_observed_runs_start_no_collection():
    """Three observed TSS runs of 2,000 iterations (208 events each),
    their results kept: no collection starts.  Each kept run adds ~120
    tracked objects (its result, one row per chunk); a trace of one
    tuple per event added 208 more, and these three runs started a
    collection."""
    _observed_tss(2000).run()  # first-use caches
    starts = []

    def count(phase: str, info: dict) -> None:
        if phase == "start":
            starts.append(info["generation"])

    kept = []
    gc.collect()
    gc.callbacks.append(count)
    try:
        for _ in range(3):
            kept.append(_observed_tss(2000).run())
    finally:
        gc.callbacks.remove(count)
    assert sum(len(result.obs_events) for result in kept) == 3 * 208
    assert starts == []
