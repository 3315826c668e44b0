"""Discrete-event core: a deterministic time-ordered event queue.

The cluster simulators (:mod:`repro.simulation.engine`,
:mod:`repro.simulation.tree_engine` and
:mod:`repro.decentral.sim_engine`, all on the
:mod:`repro.simulation.des` chassis, which owns the queue) are classic
event-driven simulations: every state change (message arrival,
computation finish, flush timer) is a heap entry popped in time order.
Determinism is load-bearing -- experiments must be exactly
reproducible -- so ties are broken by a monotonically increasing
sequence number, never by object identity or insertion hazards.

An entry is the plain tuple ``(time, seq, fn, args, owner, epoch)``:
tuples order by ``(time, seq)`` first and ``seq`` is unique per queue,
so a comparison never reaches ``fn``.  ``owner`` is the worker the
entry belongs to (anything with ``dead`` and ``epoch``), or None for
an entry that belongs to nobody (a scheduled death, restart, stall).
The master protocol is three entries a chunk, which is why nothing is
allocated per entry beyond the tuple itself: no closure, no wrapper
object, and the fail-stop guard runs in :meth:`EventQueue.run`.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable

__all__ = ["EventQueue", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on simulator invariant violations (e.g. time reversal)."""


class EventQueue(object):
    """Min-heap of entries ordered by ``(time, seq)``; tracks the clock.

    The clock only moves forward: scheduling an entry in the past is an
    error (it would silently reorder causality), and firing an entry
    advances the clock to its timestamp.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[Any, ...]] = []
        self._seq = itertools.count()
        self.now = 0.0
        self.processed = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(
        self,
        time: float,
        fn: Callable[..., None],
        owner: Any = None,
        *args: Any,
    ) -> None:
        """Schedule ``fn`` at absolute virtual time ``time``.

        With an ``owner`` the entry fires as ``fn(owner, *args)``, and
        only if the owner is still the incarnation that scheduled it
        (see :meth:`run`); without one it fires as ``fn(*args)``,
        always.
        """
        # ``not >=`` rather than ``<``: a NaN compares false both ways
        # and would leave the heap order undefined.  With every entry
        # at or after ``now`` at insert, a pop can never move the clock
        # back, so :meth:`run` does not re-check.
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule at t={time}: NaN or before "
                f"now={self.now}"
            )
        heappush(self._heap, (
            time, next(self._seq), fn, args, owner,
            0 if owner is None else owner.epoch,
        ))

    def run(self, max_events: int = 50_000_000) -> int:
        """Drain the queue, firing each live entry; returns entries
        processed.

        Fail-stop: a dying worker's in-flight messages are lost with
        it, so an owned entry whose owner is dead is skipped.  The
        epoch captured at :meth:`push` makes the guard restart-safe: a
        chaos restart revives the worker, but entries scheduled by the
        dead incarnation still must not fire (their protocol context
        is gone).  A skipped entry counts as processed all the same.
        ``max_events`` is a runaway guard.
        """
        heap = self._heap
        fired = 0
        try:
            while heap:
                if fired >= max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; likely a livelock"
                    )
                time, _seq, fn, args, owner, epoch = heappop(heap)
                self.now = time
                fired += 1
                if owner is None:
                    fn(*args)
                elif not owner.dead and owner.epoch == epoch:
                    fn(owner, *args)
        finally:
            self.processed += fired
        return fired
