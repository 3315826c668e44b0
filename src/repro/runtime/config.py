"""Runtime tuning knobs.

The master's poll timeout used to be a magic ``wait(..., timeout=5.0)``
buried in :mod:`repro.runtime.master`; every timing behaviour of the
runtime now lives here, documented and defaulted.  A caller that needs
other values passes its own :class:`RuntimeConfig` (the service pool's
``SERVICE_RUNTIME`` does):

``poll_timeout``
    Seconds :func:`multiprocessing.connection.wait` blocks per poll
    (default 5.0); the master also cuts it short at the nearest
    deadline expiry and at the fault script's next action, so it is a
    ceiling on idle wakeups, not a detection latency.
``worker_deadline``
    Seconds of total silence (no request, no heartbeat) after which a
    worker is declared dead and its outstanding interval is requeued
    (default 120).  ``None`` disables the deadline.
``heartbeat_interval``
    Seconds between worker heartbeats (default 2.0).  Heartbeats let a
    worker stay "alive" through a long chunk; without them the deadline
    must exceed the longest chunk.  ``None`` disables them.
``join_timeout``
    Seconds the executor waits for worker processes to exit (default
    30).

Values are validated: every one set is finite and positive (``inf`` would
overflow the poll's ``wait``), and a deadline shorter than the
heartbeat interval is rejected because every worker would time out by
construction.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Hashable, Iterable, Mapping, Optional, TypeVar

__all__ = ["RuntimeConfig"]


_K = TypeVar("_K", bound=Hashable)


@dataclasses.dataclass(frozen=True)
class RuntimeConfig(object):
    """Timing knobs for the multiprocessing runtime (see module doc)."""

    poll_timeout: float = 5.0
    worker_deadline: Optional[float] = 120.0
    heartbeat_interval: Optional[float] = 2.0
    join_timeout: float = 30.0

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value is not None and not math.isfinite(value):
                raise ValueError(
                    f"{field.name} must be finite, got {value}"
                )
        if not (self.poll_timeout > 0):
            raise ValueError(
                f"poll_timeout must be > 0, got {self.poll_timeout}"
            )
        if self.worker_deadline is not None \
                and not (self.worker_deadline > 0):
            raise ValueError(
                "worker_deadline must be > 0 or None (disabled), got "
                f"{self.worker_deadline}"
            )
        if self.heartbeat_interval is not None \
                and not (self.heartbeat_interval > 0):
            raise ValueError(
                "heartbeat_interval must be > 0 or None (disabled), got "
                f"{self.heartbeat_interval}"
            )
        if not (self.join_timeout > 0):
            raise ValueError(
                f"join_timeout must be > 0, got {self.join_timeout}"
            )
        if self.worker_deadline is not None \
                and self.heartbeat_interval is not None \
                and self.worker_deadline <= self.heartbeat_interval:
            raise ValueError(
                f"worker_deadline ({self.worker_deadline}) must exceed "
                f"heartbeat_interval ({self.heartbeat_interval}), or "
                f"every worker would miss its deadline by construction"
            )

    # -- the deadline rule ---------------------------------------------------
    # Pure functions of (last-heard-from times, now): the one-shot
    # master blocks and scans by them, and the service pool arms its
    # liveness timer and scans by them, so "dropped on time however
    # the wait returned" is one rule.

    def overdue(
        self, last_seen: Mapping[_K, float], now: float
    ) -> list[_K]:
        """The keys of ``last_seen`` silent for more than
        ``worker_deadline`` at ``now``; none when it is disabled."""
        deadline = self.worker_deadline
        if deadline is None:
            return []
        return [
            key for key, seen in last_seen.items()
            if now - seen > deadline
        ]

    def wait_bound(
        self, last_seen_values: Iterable[float], now: float
    ) -> float:
        """How long a liveness loop may block from ``now``:
        ``poll_timeout``, cut short at the nearest deadline expiry so
        the scan after the wait is never late."""
        oldest = min(last_seen_values, default=None)
        if self.worker_deadline is None or oldest is None:
            return self.poll_timeout
        return min(
            self.poll_timeout,
            max(0.0, oldest + self.worker_deadline - now),
        )
