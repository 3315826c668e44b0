"""The master's half of the self-scheduling protocol, written once.

The master DES (:mod:`repro.simulation.engine`), the process runtime's
:func:`~repro.runtime.master.master_loop` and :mod:`repro.runtime.mpi`
serve requests through :class:`MasterState`: requeued work before the
scheduler is asked, then assign, park or terminate; lose a dead
worker's span; release the parked.  It reads no clock and owns no
transport: a shell passes the times its rows carry and turns each
decision into its own messages.
"""

from __future__ import annotations

import collections
from typing import Any, Callable, Mapping, Optional

from .base import Requester, Scheduler

__all__ = ["PARK", "MasterState"]

Span = tuple[int, int]

#: What :meth:`MasterState.request` returns for a worker it parked.
PARK = (-1, -1, -1)


class MasterState(object):
    """One run's requeue FIFO, parked workers and outstanding spans.

    ``may_reappear(outstanding)`` says whether a dry worker may still
    get work, given each worker's outstanding span: on the DES, while a
    worker with a death ahead holds one; in the process runtime, while
    any is out or a restart is expected; under MPI, never.  ``record``
    takes the ``result``, ``adapt``, ``park`` and ``assign`` rows
    (:class:`repro.obs.ObsEvent`'s eleven fields) of an observed run.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        requester: Requester,
        may_reappear: Callable[[Mapping[int, Span]], bool],
        source: str = "",
        record: Optional[Callable[[tuple[Any, ...]], Any]] = None,
    ) -> None:
        self.scheduler = scheduler
        self.step = scheduler.stepper(requester)
        self.may_reappear = may_reappear
        self.source = source
        self.record = record
        drain = scheduler.drain_decisions
        inert = getattr(drain, "__func__", None) is Scheduler.drain_decisions
        #: stage decisions mirrored into ``adapt`` rows, when observed.
        self.decisions = None if inert or record is None else drain
        #: lost spans, reassigned verbatim and first lost first.
        self.requeue: collections.deque[Span] = collections.deque()
        self.parked: list[int] = []
        self.outstanding: dict[int, Span] = {}

    def request(
        self,
        wid: int,
        acp: Optional[int],
        delivered: bool,
        at: float = 0.0,
        landed: Optional[float] = None,
    ) -> Optional[tuple[int, int, int]]:
        """Serve ``wid``'s request at ``at``: ``(start, stop, stage)``,
        :data:`PARK`, or None (terminate).  ``delivered``: it carries
        the results of ``wid``'s outstanding span, landed at ``landed``
        (default ``at``).  A worker asking without results holds
        nothing (a dead incarnation's span went through :meth:`lose`).
        """
        record = self.record
        outstanding = self.outstanding
        if delivered:
            span = outstanding.pop(wid, None)
            if span is not None and record is not None:
                record(("result", self.source, at if landed is None
                        else landed, wid, span[0], span[1], None, None,
                        None, "", None))
        if self.requeue:
            start, stop = self.requeue.popleft()
            stage = 0
        else:
            chunk = self.step(wid, acp)
            if self.decisions is not None and record is not None:
                for d in self.decisions():
                    record(("adapt", self.source, at, wid, d.base,
                            d.base + d.size, d.stage, None, d.reward,
                            d.summary(), None))
            if chunk is None:
                if not self.may_reappear(outstanding):
                    return None
                if record is not None:
                    record(("park", self.source, at, wid, None, None,
                            None, None, None, "", None))
                self.parked.append(wid)
                return PARK
            start, stop, stage = chunk
        outstanding[wid] = (start, stop)
        if record is not None:
            record(("assign", self.source, at, wid, start, stop, stage,
                    acp, None, "", None))
        return start, stop, stage

    def lose(self, wid: int) -> Optional[Span]:
        """``wid`` is gone: requeue (and return) the span it held."""
        if wid in self.parked:
            self.parked.remove(wid)
        span = self.outstanding.pop(wid, None)
        if span is not None:
            self.requeue.append(span)
        return span

    def release(self, at: float = 0.0) -> list[tuple[int, Optional[Span]]]:
        """The replies owed to parked workers at ``at``: a requeued span
        each while both last; once no work can reappear, None
        (terminate) for every one still parked."""
        replies: list[tuple[int, Optional[Span]]] = []
        requeue, parked = self.requeue, self.parked
        while requeue and parked:
            wid = parked.pop(0)
            start, stop = span = requeue.popleft()
            self.outstanding[wid] = span
            if self.record is not None:
                self.record(("assign", self.source, at, wid, start, stop,
                             0, None, None, "requeue", None))
            replies.append((wid, span))
        if parked and not requeue and self.scheduler.finished \
                and not self.may_reappear(self.outstanding):
            replies += [(wid, None) for wid in parked]
            parked.clear()
        return replies
