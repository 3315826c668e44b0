"""Collector tests: truthiness contract, buffering, the row sink."""

from __future__ import annotations

import copy
import pickle
import sys

from repro.obs import (
    NULL,
    BufferedCollector,
    NullCollector,
    ObsEvent,
    capture,
    resolve,
    sink,
)


def _ev(i=0):
    return ObsEvent("request", "sim.master", float(i), worker=i)


def test_null_collector_is_falsy():
    assert not NULL
    assert not NullCollector()


def test_empty_buffered_collector_is_truthy():
    # Regression: BufferedCollector defines __len__, which would make
    # an *empty* collector falsy and silently disable every emission
    # site's `if self.obs:` gate for the first event of a run.
    trace = BufferedCollector()
    assert len(trace) == 0
    assert trace
    trace.emit(_ev())
    assert trace and len(trace) == 1


def test_resolve_normalizes_none_to_null():
    assert resolve(None) is NULL
    trace = BufferedCollector()
    assert resolve(trace) is trace


def test_null_emit_is_a_no_op():
    NULL.emit(_ev())
    NULL.flush()
    NULL.close()


def test_buffered_extend_and_by_kind():
    trace = BufferedCollector()
    trace.emit(_ev(1))
    trace.extend([
        ObsEvent("result", "sim.master", 1.0, worker=0, start=0, stop=4),
    ])
    assert len(trace) == 2
    assert [e.kind for e in trace] == ["request", "result"]
    assert len(trace.by_kind("result")) == 1


def test_sink_of_a_plain_buffer_is_its_list_append():
    trace = BufferedCollector()
    put = sink(trace)
    put(_ev(0))
    trace.emit(_ev(1))
    put(_ev(2))
    assert [e.worker for e in trace.events] == [0, 1, 2]
    # Nothing was stored on the collector: it still copies and
    # pickles, and the copy's sink feeds the copy.
    assert "emit" not in vars(trace)
    for twin in (copy.deepcopy(trace), pickle.loads(pickle.dumps(trace))):
        sink(twin)(_ev(3))
        assert len(twin) == 4 and len(trace) == 3


def test_sink_never_bypasses_an_emit_somebody_replaced():
    class Doubling(BufferedCollector):
        def emit(self, event):
            super().emit(event)
            super().emit(event)

    doubling = Doubling()
    sink(doubling)(_ev())
    assert len(doubling) == 2

    shadowed = BufferedCollector()
    seen = []
    shadowed.emit = seen.append
    sink(shadowed)(_ev())
    assert len(seen) == 1 and len(shadowed) == 0

    class Duck(object):
        """What ``service.pool._StreamCollector`` is: no base class."""

        def __init__(self):
            self.events = []
            self.calls = 0

        def __bool__(self):
            return True

        def emit(self, event):
            self.calls += 1
            self.events.append(event)

    duck = Duck()
    sink(duck)(_ev())
    assert duck.calls == 1


def test_sink_takes_rows_and_only_a_plain_buffer_keeps_them():
    row = tuple(_ev(5))
    trace = BufferedCollector()
    held = sys.getrefcount(row)
    sink(trace)(row)
    # The buffer keeps the row's fields in its flat store, not the row.
    assert sys.getrefcount(row) == held
    assert trace.events.flat() == list(row)
    assert trace.events == [_ev(5)]

    seen = []
    shadowed = BufferedCollector()
    shadowed.emit = seen.append
    sink(shadowed)(row)
    # Any other emit sees an ObsEvent, never a bare row.
    assert type(seen[0]) is ObsEvent and seen[0] == _ev(5)


def test_capture_context_manager():
    with capture() as trace:
        trace.emit(_ev())
    assert len(trace.events) == 1
