"""``EventList``: a trace kept as rows reads as the ``ObsEvent`` list
it stands for, and the digest and wire text never build an event.

A row is the eleven :class:`ObsEvent` fields as a plain tuple -- what
the per-chunk DES sites emit.  The property tests hold an
``EventList`` over random rows (mixed with ``ObsEvent`` objects,
which are rows too) to the list of events it stands for; the rest
runs real jobs and every ``golden_des.json`` case.
"""

from __future__ import annotations

import collections
import hashlib
import json
import pickle
import socket
import threading

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
    canonical_stream,
    events_json,
    stream_digest,
)
from repro.service import ServiceClient
from repro.service.jobs import job_from_spec
from repro.service.pool import _execute_body
from repro.service.protocol import recv_frame, send_frame
from repro.simulation import SimulationError
from repro.workloads import GaussianPeakWorkload

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


@given(_mixed)
def test_reads_exactly_like_the_event_list(rows):
    events = EventList(list(rows))
    expected = [ObsEvent._make(row) for row in rows]
    assert len(events) == len(expected)
    assert bool(events) == bool(expected)
    assert list(events) == expected
    assert all(type(ev) is ObsEvent for ev in events)
    for i in range(-len(expected), len(expected)):
        assert events[i] == expected[i]
    assert events[1:-1:2] == expected[1:-1:2]
    assert repr(events) == repr(expected)


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
    events = EventList(list(rows))
    if read_first:
        list(events)
    back = pickle.loads(pickle.dumps(events))
    assert type(back) is EventList
    assert all(type(row) is tuple for row in back.rows())
    assert back == [ObsEvent._make(row) for row in rows]


@given(_mixed)
def test_first_read_materializes_in_place_and_once(rows):
    backing = list(rows)
    events = EventList(backing)
    assert events.rows() is backing
    # Length and truth read no row.
    len(events), bool(events)
    assert [type(row) for row in backing] == [type(row) for row in rows]
    first = list(events)
    assert events.rows() is backing
    assert all(type(row) is ObsEvent for row in backing)
    # The second read converts nothing: the very same objects.
    assert all(a is b for a, b in zip(first, events))


@given(_mixed, _rows)
def test_rows_appended_after_a_read_convert_at_the_next_read(rows, late):
    events = EventList(list(rows))
    list(events)
    events.rows().append(late)
    assert type(events.rows()[-1]) is tuple
    assert events[-1] == ObsEvent._make(late)
    assert type(events.rows()[-1]) is ObsEvent


@pytest.mark.parametrize("width", [10, 12])
@given(row=_rows)
def test_a_row_of_the_wrong_width_raises_when_read(width, row):
    bad = (row + (None,))[:width]
    events = EventList([bad])
    assert len(events) == 1  # appending checks nothing
    for read in (list, lambda evs: evs[0], repr,
                 lambda evs: evs == []):
        with pytest.raises(TypeError):
            read(EventList([bad]))


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
    digest, text = stream_digest(events), events_json(events)
    assert not _CHUNK_KINDS & set(built), built
    rows = sum(type(row) is tuple for row in events.rows())
    assert rows > 0 and rows + sum(built.values()) == len(events)

    monkeypatch.undo()
    assert digest == stream_digest(list(events))
    assert text == events_json(list(events))


@pytest.mark.parametrize("substrate,fault", CASES)
def test_rows_give_the_events_digest_and_wire_text(substrate, fault):
    """Every ``golden_des.json`` case: the digest and the
    ``events_json`` text written from the rows equal, byte for byte,
    their definitions over the materialized ``ObsEvent`` list."""
    collector = BufferedCollector()
    try:
        run_case(substrate, fault, collector)
    except SimulationError:
        pass  # compare what was emitted before the error
    events = collector.events
    digest, text = stream_digest(events), events_json(events)
    assert any(type(row) is tuple for row in events.rows())

    materialized = list(events)
    assert all(type(ev) is ObsEvent for ev in events.rows())
    canonical = "\n".join(
        json.dumps(row, sort_keys=True)
        for row in canonical_stream(materialized)
    )
    assert digest == hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    assert digest == stream_digest(materialized)
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
    rows = sum(type(row) is tuple for row in one_shot.rows())
    assert rows + sum(built.values()) == len(shipped) == len(one_shot)


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
