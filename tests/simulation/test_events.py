"""Tests for the discrete-event queue."""

from __future__ import annotations

import pytest

from repro.simulation import EventQueue, SimulationError


class TestEventQueue:
    def test_time_order(self):
        q = EventQueue()
        fired = []
        q.schedule(3.0, lambda e: fired.append("c"))
        q.schedule(1.0, lambda e: fired.append("a"))
        q.schedule(2.0, lambda e: fired.append("b"))
        q.run()
        assert fired == ["a", "b", "c"]
        assert q.now == 3.0

    def test_fifo_tiebreak(self):
        q = EventQueue()
        fired = []
        for label in "abc":
            q.schedule(1.0, lambda e, s=label: fired.append(s))
        q.run()
        assert fired == ["a", "b", "c"]

    def test_cannot_schedule_in_past(self):
        q = EventQueue()
        q.schedule(1.0, lambda e: q.pop())
        q.run()
        with pytest.raises(SimulationError):
            q.schedule_at(0.5, lambda e: None)
        with pytest.raises(SimulationError):
            q.schedule(-1.0, lambda e: None)

    def test_nan_time_is_rejected_at_insert(self):
        # ``nan < now`` is false, so a NaN used to reach the heap: the
        # order was then undefined and this exact sequence fired 0.5
        # after 1.0 (or died in pop's "time reversal" branch).
        q = EventQueue()
        fired = []
        q.schedule_at(2.0, lambda e: fired.append(e.time))
        with pytest.raises(SimulationError, match="nan"):
            q.schedule_at(float("nan"), lambda e: fired.append(e.time))
        with pytest.raises(SimulationError, match="nan"):
            q.schedule(float("nan"), lambda e: fired.append(e.time))
        q.schedule_at(1.0, lambda e: fired.append(e.time))
        q.schedule_at(0.5, lambda e: fired.append(e.time))
        assert len(q) == 3
        assert q.run() == 3
        assert fired == [0.5, 1.0, 2.0]
        assert q.now == 2.0 and q.processed == 3

    def test_same_time_events_never_compare_actions(self):
        # An event is its own heap entry; ``seq`` is unique, so a tie
        # on time is settled before the (non-orderable) actions,
        # kinds or payloads are looked at.
        q = EventQueue()
        fired = []
        events = [
            q.schedule_at(
                1.0, lambda e: fired.append(e.seq), kind="k",
                payload={"unorderable": object()},
            )
            for _ in range(50)
        ]
        assert [e.seq for e in events] == list(range(50))
        assert q.pop() is events[0]
        q.run()
        assert fired == list(range(1, 50))

    def test_actions_can_schedule_more(self):
        q = EventQueue()
        fired = []

        def chain(event):
            fired.append(q.now)
            if q.now < 3.0:
                q.schedule(1.0, chain)

        q.schedule(1.0, chain)
        q.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_until_bound(self):
        q = EventQueue()
        fired = []
        q.schedule(1.0, lambda e: fired.append(1))
        q.schedule(5.0, lambda e: fired.append(5))
        q.run(until=2.0)
        assert fired == [1]
        assert len(q) == 1

    def test_runaway_guard(self):
        q = EventQueue()

        def forever(event):
            q.schedule(0.001, forever)

        q.schedule(0.001, forever)
        with pytest.raises(SimulationError):
            q.run(max_events=100)

    def test_payload_and_kind(self):
        q = EventQueue()
        seen = []
        q.schedule(
            1.0, lambda e: seen.append((e.kind, e.payload)),
            kind="ping", payload={"x": 1},
        )
        q.run()
        assert seen == [("ping", {"x": 1})]

    def test_pop_empty_returns_none(self):
        assert EventQueue().pop() is None
