"""Exporter tests: JSONL round-trip, Chrome trace, canonical stream."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.obs import (
    EVENT_KINDS,
    ObsEvent,
    canonical_stream,
    events_json,
    read_jsonl,
    stream_digest,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)

from ..conftest import assert_json_text

EVENTS = [
    ObsEvent("request", "sim.master", 0.0, worker=0),
    ObsEvent("assign", "sim.master", 0.1, worker=0, start=0, stop=8),
    ObsEvent("compute", "sim.master", 0.1, worker=0, start=0, stop=8,
             value=0.4),
    ObsEvent("result", "sim.master", 0.5, worker=0, start=0, stop=8),
    ObsEvent("fault", "chaos", 0.6, worker=1, detail="death"),
    ObsEvent("result", "sim.master", 0.9, worker=2, start=8, stop=12),
    ObsEvent("terminate", "sim.master", 1.0, worker=0),
]


def test_jsonl_round_trip_text_and_file(tmp_path):
    text = to_jsonl(EVENTS)
    assert read_jsonl(text) == EVENTS
    path = tmp_path / "t.jsonl"
    assert write_jsonl(path, EVENTS) == len(EVENTS)
    assert read_jsonl(path) == EVENTS


def test_read_jsonl_tolerates_torn_tail_only(tmp_path):
    path = tmp_path / "torn.jsonl"
    path.write_text(to_jsonl(EVENTS[:2]) + '{"kind": "requ')
    assert read_jsonl(path) == EVENTS[:2]
    # corruption *mid-file* is a real error, not a torn tail
    bad = tmp_path / "corrupt.jsonl"
    bad.write_text('garbage\n' + to_jsonl(EVENTS[:1]))
    with pytest.raises(json.JSONDecodeError):
        read_jsonl(bad)


def test_chrome_trace_layout(tmp_path):
    doc = to_chrome_trace(EVENTS)
    trace = doc["traceEvents"]
    # one process per source, named
    procs = {e["args"]["name"] for e in trace
             if e.get("name") == "process_name"}
    assert procs == {"sim.master", "chaos"}
    # compute spans are complete events with microsecond durations
    spans = [e for e in trace if e["ph"] == "X"]
    assert len(spans) == 1
    assert spans[0]["dur"] == pytest.approx(0.4 * 1e6)
    assert spans[0]["ts"] == pytest.approx(0.1 * 1e6)
    # everything else renders as instants
    instants = [e for e in trace if e["ph"] == "i"]
    assert len(instants) == len(EVENTS) - 1
    # the fault instant carries its detail in the name
    assert any(e["name"] == "fault:death" for e in instants)
    # and the whole document is plain JSON
    out = tmp_path / "chrome.json"
    write_chrome_trace(out, EVENTS)
    assert json.loads(out.read_text())["traceEvents"]


def test_chrome_trace_adapt_and_fault_kinds():
    # The meta-scheduler and chaos kinds render as named instants on
    # the emitting worker's thread, with the detail in the name.
    events = [
        ObsEvent("adapt", "sim.master", 0.2, worker=0, start=0,
                 stop=64, stage=1, value=0.9,
                 detail="select TSS"),
        ObsEvent("adapt", "sim.master", 0.8, worker=2, start=64,
                 stop=128, stage=2, value=0.7,
                 detail="retune CSS(64) k=12"),
        ObsEvent("fault", "chaos", 0.4, worker=1, detail="stall",
                 value=0.25),
        ObsEvent("fault", "chaos", 0.5, worker=1, detail="delay",
                 value=0.1),
    ]
    trace = to_chrome_trace(events)["traceEvents"]
    instants = [e for e in trace if e["ph"] == "i"]
    assert len(instants) == len(events)
    names = {e["name"] for e in instants}
    assert names == {
        "adapt:select TSS", "adapt:retune CSS(64) k=12",
        "fault:stall", "fault:delay",
    }
    by_name = {e["name"]: e for e in instants}
    assert by_name["adapt:select TSS"]["ts"] == pytest.approx(0.2e6)
    assert by_name["fault:stall"]["ts"] == pytest.approx(0.4e6)
    # no spans: neither kind carries a duration on the timeline
    assert [e for e in trace if e["ph"] == "X"] == []


def test_canonical_stream_keeps_only_sorted_result_intervals():
    rows = canonical_stream(EVENTS)
    assert rows == [
        {"kind": "result", "start": 0, "stop": 8},
        {"kind": "result", "start": 8, "stop": 12},
    ]


def test_stream_digest_ignores_clocks_workers_and_sources():
    shifted = [
        ObsEvent("result", "runtime.decentral", ev.t + 17.0,
                 worker=ev.worker + 5, start=ev.start, stop=ev.stop,
                 wall=1e9)
        for ev in EVENTS if ev.kind == "result"
    ]
    assert stream_digest(shifted) == stream_digest(EVENTS)
    # but a moved cut point changes it
    moved = shifted[:-1] + [
        ObsEvent("result", "runtime.decentral", 0.0, worker=0,
                 start=8, stop=13),
    ]
    assert stream_digest(moved) != stream_digest(EVENTS)


def test_stream_digest_is_order_insensitive():
    assert stream_digest(list(reversed(EVENTS))) == stream_digest(EVENTS)


def _digest_by_definition(events) -> str:
    """The digest as defined: sha256 of the canonical stream's JSONL."""
    payload = "\n".join(
        json.dumps(row, sort_keys=True) for row in canonical_stream(events)
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def test_stream_digest_literal():
    # Pinned bytes: a change to the line format, the sort or the filter
    # moves every stored digest (service ledgers, golden files).
    assert _digest_by_definition(EVENTS) == stream_digest(EVENTS) == (
        "ab2db7336d052287156806ffeeb63b4c"
        "263ed9ed9832f84e59a7b3175b36b8cf"
    )
    assert stream_digest([]) == hashlib.sha256(b"").hexdigest()


_intervals = st.integers(min_value=0, max_value=10**12)
_events = st.builds(
    ObsEvent,
    kind=st.sampled_from(["result"] * 3 + sorted(EVENT_KINDS)),
    source=st.just("sim.master"),
    t=st.floats(min_value=0.0, max_value=1e6),
    worker=st.integers(min_value=-1, max_value=64),
    start=st.one_of(st.none(), _intervals, st.integers(0, 3)),
    stop=st.one_of(_intervals, st.integers(0, 3)),
)


@given(st.lists(_events, max_size=40))
def test_stream_digest_is_the_digest_of_the_canonical_stream(events):
    # ``stream_digest`` formats its lines itself; the canonical stream
    # through ``json.dumps`` stays the definition.  Small intervals
    # collide on purpose: repeated and equal-start rows must sort alike.
    assert stream_digest(events) == _digest_by_definition(events)
    assert stream_digest(iter(events)) == _digest_by_definition(events)
    assert stream_digest(events[::-1]) == stream_digest(events)


def assert_events_json(events) -> None:
    assert_json_text(events_json(events), [ev.to_dict() for ev in events])


def test_events_json_literal():
    assert events_json([]) == "[]"
    assert events_json(EVENTS[:1] + EVENTS[4:5]) == (
        '[{"kind":"request","source":"sim.master","t":0.0,"worker":0},'
        '{"kind":"fault","source":"chaos","t":0.6,"worker":1,'
        '"detail":"death"}]'
    )
    assert_events_json(EVENTS)
    # orjson's forms, where ``json`` would write 1e+16 and \u2603.
    text = events_json([EVENTS[0]._replace(t=1e16, detail="\u2603")])
    assert "1e+16" not in text and '"detail":"\u2603"' in text


@pytest.mark.parametrize("event, token", [
    # orjson would write a non-finite float as ``null``.
    (EVENTS[0]._replace(t=float("nan")), '"t":NaN'),
    (EVENTS[2]._replace(value=float("inf")), '"value":Infinity'),
    (EVENTS[0]._replace(wall=np.float64("-inf")), '"wall":-Infinity'),
    # orjson refuses these outright.
    (EVENTS[1]._replace(stop=2 ** 64), '"stop":18446744073709551616'),
    (EVENTS[4]._replace(detail="\udfff"), '"detail":"\\udfff"'),
], ids=["nan-t", "inf-value", "np-inf-wall", "int-beyond-64-bits",
        "lone-surrogate"])
def test_events_json_falls_back_to_json_exactly_there(event, token):
    text = events_json(EVENTS[:2] + [event])
    assert token in text
    text.encode("utf-8")  # a reply body
    assert_events_json(EVENTS[:2] + [event])


#: A float field as an event may hold it: a float of any magnitude
#: (orjson and ``repr`` part ways below 1e-4 and from 1e16), an
#: ``np.float64``, an int, or a non-finite value, which goes through
#: ``json``.
_float_fields = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([-0.0, 5e-324, 1e-5, 9.99e-5, 1e16, 1.5e300]),
)
#: Ints orjson writes; one beyond 64 bits (or a lone surrogate) sends
#: the whole text to ``json``, so those are the direct cases above.
_int_fields = st.one_of(
    st.none(), st.integers(-10**12, 10**12),
    st.sampled_from([-2 ** 63, 2 ** 63 - 1, 2 ** 64 - 1]),
)
_wire_events = st.builds(
    ObsEvent,
    # Text fields: quotes, backslashes, control and non-ASCII
    # characters all come out of ``st.text()``.
    kind=st.one_of(st.sampled_from(sorted(EVENT_KINDS)), st.text()),
    source=st.one_of(st.just("sim.master"), st.text(max_size=6)),
    t=_float_fields,
    worker=st.integers(min_value=-1, max_value=64),
    start=_int_fields,
    stop=_int_fields,
    stage=_int_fields,
    acp=_int_fields,
    value=st.one_of(st.none(), _float_fields),
    detail=st.one_of(
        st.just(""), st.text(),
        st.sampled_from(['say "hi"', "back\\slash", "tab\there",
                         "nul\x00", "caf\u00e9 \u2603", "nan inf",
                         "null"]),
    ),
    wall=st.one_of(st.none(), _float_fields),
)


@given(st.lists(_wire_events, max_size=12))
def test_events_json_is_the_json_of_the_dicts(events):
    # ``to_dict`` is the definition: read back by ``json``, the text is
    # the dicts, and it is orjson's text of them whenever orjson can
    # write them exactly.
    assert_events_json(events)
