"""Tests for the discrete-event queue and its entry shape."""

from __future__ import annotations

import dataclasses

import pytest

from repro.simulation import EventQueue, SimulationError


@dataclasses.dataclass
class Owner:
    """The two fields the run loop's fail-stop guard reads."""

    dead: bool = False
    epoch: int = 0


class Unorderable:
    """Fails the test if a heap comparison ever reaches it."""

    def __lt__(self, other):  # pragma: no cover - must not run
        raise AssertionError("heap compared past (time, seq)")

    __gt__ = __le__ = __ge__ = __lt__


class TestEventQueue:
    def test_time_order(self):
        q = EventQueue()
        fired = []
        q.push(3.0, fired.append, None, "c")
        q.push(1.0, fired.append, None, "a")
        q.push(2.0, fired.append, None, "b")
        assert len(q) == 3
        assert q.run() == 3
        assert fired == ["a", "b", "c"]
        assert q.now == 3.0 and q.processed == 3 and len(q) == 0

    def test_fifo_tiebreak(self):
        q = EventQueue()
        fired = []
        for label in "abc":
            q.push(1.0, fired.append, None, label)
        q.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_events_never_compare_actions(self):
        # ``seq`` is unique, so a tie on time is settled before the
        # (non-orderable) callables, args or owners are looked at.
        q = EventQueue()
        fired = []

        class Fn(Unorderable):
            def __call__(self, owner, label, _arg):
                fired.append(label)

        class UnorderableOwner(Unorderable, Owner):
            pass

        for label in range(50):
            q.push(1.0, Fn(), UnorderableOwner(), label, Unorderable())
        q.run()
        assert fired == list(range(50))

    def test_cannot_schedule_in_past(self):
        q = EventQueue()
        q.push(1.0, lambda: None)
        q.run()
        with pytest.raises(SimulationError):
            q.push(0.5, lambda: None)
        q.push(1.0, lambda: None)  # "now" itself is fine

    def test_nan_time_is_rejected_at_insert(self):
        # ``nan < now`` is false, so a NaN used to reach the heap: the
        # order was then undefined and this exact sequence fired 0.5
        # after 1.0.
        q = EventQueue()
        fired = []
        q.push(2.0, fired.append, None, 2.0)
        with pytest.raises(SimulationError, match="nan"):
            q.push(float("nan"), fired.append, None, "nan")
        q.push(1.0, fired.append, None, 1.0)
        q.push(0.5, fired.append, None, 0.5)
        assert len(q) == 3
        assert q.run() == 3
        assert fired == [0.5, 1.0, 2.0]
        assert q.now == 2.0 and q.processed == 3

    def test_actions_can_schedule_more(self):
        q = EventQueue()
        fired = []

        def chain():
            fired.append(q.now)
            if q.now < 3.0:
                q.push(q.now + 1.0, chain)

        q.push(1.0, chain)
        q.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_runaway_guard(self):
        q = EventQueue()
        fired = []

        def forever():
            fired.append(q.now)
            q.push(q.now + 0.001, forever)

        q.push(0.001, forever)
        with pytest.raises(SimulationError, match="100 events"):
            q.run(max_events=100)
        # Raised before the 101st fires, not after it.
        assert len(fired) == 100 and q.processed == 100

    def test_runaway_guard_allows_exactly_max_events(self):
        q = EventQueue()
        for i in range(100):
            q.push(float(i), lambda: None)
        assert q.run(max_events=100) == 100


class TestOwnership:
    def test_owned_entry_fires_with_its_owner_first(self):
        q = EventQueue()
        owner = Owner()
        seen = []
        q.push(1.0, lambda *a: seen.append(a), owner, "x", 2)
        q.run()
        assert seen == [(owner, "x", 2)]

    def test_ownerless_entry_fires_with_its_args_only(self):
        q = EventQueue()
        seen = []
        q.push(1.0, lambda *a: seen.append(a), None, "x", 2)
        q.push(2.0, lambda *a: seen.append(a))
        q.run()
        assert seen == [("x", 2), ()]

    def test_dead_owner_entry_is_skipped_but_counted(self):
        q = EventQueue()
        owner = Owner()
        fired = []
        q.push(1.0, lambda o: fired.append("before"), owner)
        q.push(2.0, lambda: setattr(owner, "dead", True))
        q.push(3.0, lambda o: fired.append("after"), owner)
        assert q.run() == 3
        assert fired == ["before"]
        # The clock still advanced over the skipped entry.
        assert q.processed == 3 and q.now == 3.0

    def test_entry_from_a_previous_incarnation_is_skipped(self):
        # Death bumps the epoch; a restart clears ``dead`` -- what the
        # dead incarnation scheduled must stay unfired all the same.
        q = EventQueue()
        owner = Owner()
        fired = []

        def die():
            owner.dead = True
            owner.epoch += 1

        def restart():
            owner.dead = False
            q.push(4.0, lambda o: fired.append("new"), owner)

        q.push(1.0, die)
        q.push(2.0, restart)
        q.push(3.0, lambda o: fired.append("stale"), owner)
        assert q.run() == 4
        assert fired == ["new"]

    def test_ownerless_entries_always_fire(self):
        # Deaths, restarts and stalls belong to nobody: no guard.
        q = EventQueue()
        owner = Owner(dead=True, epoch=7)
        fired = []
        q.push(1.0, fired.append, None, owner)
        q.run()
        assert fired == [owner]
