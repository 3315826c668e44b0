"""Tests for the discrete-event queue and its entry shape."""

from __future__ import annotations

import dataclasses
import itertools
from heapq import heappop, heappush

import pytest
from hypothesis import given
from hypothesis import strategies as st

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


class HeapqQueue(object):
    """The reference: every entry through ``heapq``, no head slot.

    Same push/run contract as :class:`EventQueue` -- ``(time, seq)``
    order, the NaN/past check at insert, the owner/epoch guard, the
    runaway guard raised before the entry past ``max_events`` fires,
    skipped entries counted in ``processed``.
    """

    def __init__(self):
        self.heap = []
        self.seq = itertools.count()
        self.now = 0.0
        self.processed = 0

    def __len__(self):
        return len(self.heap)

    def push(self, time, fn, owner=None, *args):
        if not time >= self.now:
            raise SimulationError(f"cannot schedule at t={time}")
        heappush(self.heap, (
            time, next(self.seq), fn, args, owner,
            0 if owner is None else owner.epoch,
        ))

    def run(self, max_events=50_000_000):
        fired = 0
        try:
            while self.heap:
                if fired >= max_events:
                    raise SimulationError(f"exceeded {max_events} events")
                time, _seq, fn, args, owner, epoch = heappop(self.heap)
                self.now = time
                fired += 1
                if owner is None:
                    fn(*args)
                elif not owner.dead and owner.epoch == epoch:
                    fn(owner, *args)
        finally:
            self.processed += fired
        return fired


#: Times on a coarse grid (a quarter unit), so that ties are common.
_GRID = st.integers(min_value=0, max_value=6)
_OWNER = st.one_of(st.none(), st.integers(min_value=0, max_value=2))
#: One step of a handler program: push an entry ``dt`` grid steps from
#: now (owned or not), try to push one in the past, kill an owner
#: (death bumps its epoch) or restart it.
_OP = st.one_of(
    st.tuples(st.just("push"), _GRID, _OWNER),
    st.tuples(st.just("past"), st.integers(min_value=1, max_value=3)),
    st.tuples(st.just("die"), st.integers(min_value=0, max_value=2)),
    st.tuples(st.just("restart"), st.integers(min_value=0, max_value=2)),
)
_PROGRAM = st.fixed_dictionaries({
    # Each run() round starts with these (time, owner) pushes.
    "rounds": st.lists(
        st.lists(st.tuples(_GRID, _OWNER), min_size=1, max_size=6),
        min_size=1, max_size=3,
    ),
    # A firing entry runs rules[len(log) % len(rules)].
    "rules": st.lists(
        st.lists(_OP, max_size=3), min_size=1, max_size=8,
    ),
    "push_budget": st.integers(min_value=0, max_value=120),
    "max_events": st.integers(min_value=1, max_value=200),
})


def _replay(queue, program):
    """Run ``program`` on ``queue``; everything observable, in order."""
    owners = [Owner() for _ in range(3)]
    log = []
    budget = [program["push_budget"]]
    labels = itertools.count()
    rules = program["rules"]

    def push(dt, who):
        owner = None if who is None else owners[who]
        queue.push(queue.now + 0.25 * dt, fire, owner, next(labels))

    def fire(*args):
        label = args[-1]
        log.append(("fire", queue.now, label, len(queue)))
        for op in rules[len(log) % len(rules)]:
            if op[0] == "push":
                if budget[0] > 0:
                    budget[0] -= 1
                    push(op[1], op[2])
            elif op[0] == "past":
                try:
                    queue.push(queue.now - 0.25 * op[1], fire, None, -1)
                except SimulationError:
                    log.append(("refused", queue.now))
            elif op[0] == "die":
                owners[op[1]].dead = True
                owners[op[1]].epoch += 1
            else:
                owners[op[1]].dead = False

    for initial in program["rounds"]:
        for dt, who in initial:
            push(dt, who)
        try:
            fired = queue.run(max_events=program["max_events"])
        except SimulationError as exc:
            fired = "runaway" if "exceeded" in str(exc) else str(exc)
        log.append(("run", fired, queue.now, queue.processed, len(queue)))
    return log


@given(_PROGRAM)
def test_firing_order_equals_a_plain_heapq_queue(program):
    """The head slot changes no observable: firing order, ``now``,
    ``processed``, ``len`` and where the runaway guard trips."""
    assert _replay(EventQueue(), program) == _replay(HeapqQueue(), program)


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

    def test_head_displaced_by_an_earlier_push(self):
        # 2.0 is parked ahead of the (empty) heap, 1.0 displaces it,
        # and the later pushes at both times queue behind them.
        q = EventQueue()
        fired = []
        for n, (time, label) in enumerate(
            ((2.0, "a"), (1.0, "b"), (2.0, "c"), (1.0, "d"), (0.5, "e")),
            start=1,
        ):
            q.push(time, fired.append, None, label)
            assert len(q) == n  # the head slot counts
        assert q.run() == 5
        assert fired == ["e", "b", "d", "a", "c"]
        assert q.now == 2.0 and q.processed == 5 and len(q) == 0

    def test_a_handler_push_earlier_than_the_heap_fires_next(self):
        q = EventQueue()
        fired = []

        def step(label, then):
            fired.append((q.now, label))
            if then:
                # Earlier than everything pending: fired next, from the
                # head slot; a tie with a pending entry fires after it.
                q.push(q.now + 0.5, step, None, label + "'", False)
                q.push(3.0, step, None, label + "+", False)

        q.push(1.0, step, None, "x", True)
        q.push(3.0, step, None, "y", False)
        q.run()
        assert fired == [
            (1.0, "x"), (1.5, "x'"), (3.0, "y"), (3.0, "x+"),
        ]

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
