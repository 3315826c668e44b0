"""Discrete-event core: a deterministic time-ordered event queue.

The cluster simulators (:mod:`repro.simulation.engine`,
:mod:`repro.simulation.tree_engine` and
:mod:`repro.decentral.sim_engine`, all on the
:mod:`repro.simulation.des` chassis, which owns the queue) are classic
event-driven simulations: every state change (message arrival, computation finish,
flush timer) is an :class:`Event` popped in time order.  Determinism is
load-bearing -- experiments must be exactly reproducible -- so ties are
broken by a monotonically increasing sequence number, never by object
identity or insertion hazards.

An event is a named tuple ``(time, seq, action, kind, payload)`` and is
its own heap entry: tuples order by ``(time, seq)`` first and ``seq`` is
unique per queue, so a comparison never reaches ``action``.  A pass of
the observed sweep pushes ~88k of them, which is why there is no
wrapper object around the tuple.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, NamedTuple, Optional

__all__ = ["Event", "EventQueue", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on simulator invariant violations (e.g. time reversal)."""


class Event(NamedTuple):
    """A scheduled state change.

    ``action`` is invoked with the event when it fires.  ``payload`` is
    free-form context for the action.  Field order is the heap order:
    ``(time, seq)`` decides, the rest is never compared.
    """

    time: float
    seq: int
    action: Callable[["Event"], None]
    kind: str = ""
    payload: Any = None


class EventQueue(object):
    """Min-heap of events ordered by ``(time, seq)``; tracks the clock.

    The clock only moves forward: scheduling an event in the past is an
    error (it would silently reorder causality), and popping advances
    the clock to the event's timestamp.
    """

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = itertools.count()
        self.now = 0.0
        self.processed = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(
        self,
        delay: float,
        action: Callable[[Event], None],
        kind: str = "",
        payload: Any = None,
    ) -> Event:
        """Schedule ``action`` to fire ``delay`` from the current time."""
        if delay < 0:
            raise SimulationError(
                f"cannot schedule into the past (delay={delay})"
            )
        return self.schedule_at(self.now + delay, action, kind, payload)

    def schedule_at(
        self,
        time: float,
        action: Callable[[Event], None],
        kind: str = "",
        payload: Any = None,
    ) -> Event:
        """Schedule ``action`` at absolute virtual time ``time``."""
        # ``not >=`` rather than ``<``: a NaN compares false both ways
        # and would leave the heap order undefined.  With every entry
        # at or after ``now`` at insert, a pop can never move the clock
        # back, which is what lets :meth:`run` skip the re-check.
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule at t={time}: NaN or before "
                f"now={self.now}"
            )
        event = Event(float(time), next(self._seq), action, kind, payload)
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Optional[Event]:
        """Pop and return the next event, advancing the clock; None if
        the queue is empty."""
        if not self._heap:
            return None
        event = heapq.heappop(self._heap)
        if event.time < self.now:  # pragma: no cover - guarded at insert
            raise SimulationError("event queue produced a time reversal")
        self.now = event.time
        return event

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000
            ) -> int:
        """Drain the queue, firing each event's action.

        ``until`` bounds virtual time (events beyond it stay queued);
        ``max_events`` is a runaway guard.  Returns events processed.
        """
        heap = self._heap
        heappop = heapq.heappop
        fired = 0
        while heap:
            if until is not None and heap[0].time > until:
                break
            event = heappop(heap)
            self.now = event.time
            event.action(event)
            fired += 1
            self.processed += 1
            if fired > max_events:
                raise SimulationError(
                    f"exceeded {max_events} events; likely a livelock"
                )
        return fired
