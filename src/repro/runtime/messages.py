"""Wire messages for the multiprocessing master--worker runtime.

The real-process runtime mirrors the paper's MPI protocol: a worker's
:class:`Request` piggy-backs the result of its previous chunk ("the
slaves will attach to each request, except for the first one, the
result of the computation due to the previous request"); the master
answers with an :class:`Assign` interval or :class:`Terminate`.

Messages are plain picklable dataclasses sent over
:class:`multiprocessing.Pipe` connections.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional

__all__ = ["Request", "Assign", "Terminate", "Heartbeat"]


@dataclasses.dataclass
class Request(object):
    """Worker -> master: "I am idle; here is my previous result".

    ``acp`` is attached only in distributed mode (the worker's current
    available computing power); ``result`` is ``(start, payload)`` for
    the previously assigned chunk, or ``None`` on the first request.
    """

    worker_id: int
    acp: Optional[int] = None
    result: Optional[tuple[int, Any]] = None


@dataclasses.dataclass
class Assign(object):
    """Master -> worker: compute iterations ``[start, stop)``."""

    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.stop <= self.start:
            raise ValueError(f"empty assignment [{self.start}, {self.stop})")


@dataclasses.dataclass
class Terminate(object):
    """Master -> worker: no more work; exit."""


@dataclasses.dataclass
class Heartbeat(object):
    """Worker -> master: "still alive" (sent from a side thread).

    Carries no payload beyond the sender's id; the master only refreshes
    the worker's liveness clock (see ``RuntimeConfig.worker_deadline``).
    Heartbeats let a worker survive its deadline through an arbitrarily
    long chunk without the master mistaking computation for death.
    """

    worker_id: int
