"""Runtime tuning knobs, with environment overrides.

The master's poll timeout used to be a magic ``wait(..., timeout=5.0)``
buried in :mod:`repro.runtime.master`; every timing behaviour of the
runtime now lives here, documented, defaulted, and overridable both
programmatically (pass a :class:`RuntimeConfig`) and operationally
(environment variables, read by :meth:`RuntimeConfig.from_env`):

``REPRO_POLL_TIMEOUT``
    Seconds :func:`multiprocessing.connection.wait` blocks per poll
    (default 5.0).  Smaller values detect dead workers faster and admit
    chaos-restarted workers sooner, at the cost of more wakeups.
``REPRO_WORKER_DEADLINE``
    Seconds of total silence (no request, no heartbeat) after which a
    worker is declared dead and its outstanding interval is requeued
    (default 120).  ``0`` or negative disables the deadline.
``REPRO_HEARTBEAT_INTERVAL``
    Seconds between worker heartbeats (default 2.0).  Heartbeats let a
    worker stay "alive" through a long chunk; without them the deadline
    must exceed the longest chunk.  ``0`` or negative disables them.
``REPRO_JOIN_TIMEOUT``
    Seconds the executor waits for worker processes to exit (default
    30).

Values are validated; a deadline shorter than the heartbeat interval is
rejected because every worker would time out by construction.
"""

from __future__ import annotations

import dataclasses
import math
import os
from typing import Hashable, Iterable, Mapping, Optional, TypeVar

__all__ = ["RuntimeConfig", "DEFAULT_CONFIG", "env_float"]


_K = TypeVar("_K", bound=Hashable)


def env_float(name: str) -> Optional[float]:
    """Parse ``$name`` as a finite float; ``None`` when unset/empty.

    Shared by every ``REPRO_*`` knob (runtime and service client):
    errors always name the variable, and non-finite values are
    rejected before they can disable a timeout forever.
    """
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"environment variable {name} must be a number, got {raw!r}"
        ) from None
    if not math.isfinite(value):
        # float("nan") / float("inf") parse fine but would either trip
        # validation with a message that never names the env var, or
        # (inf) silently disable polling forever.
        raise ValueError(
            f"environment variable {name} must be finite, got {raw!r}"
        )
    return value


def _disable_if_nonpositive(value: Optional[float]) -> Optional[float]:
    if value is not None and value <= 0:
        return None
    return value


@dataclasses.dataclass(frozen=True)
class RuntimeConfig(object):
    """Timing knobs for the multiprocessing runtime (see module doc)."""

    poll_timeout: float = 5.0
    worker_deadline: Optional[float] = 120.0
    heartbeat_interval: Optional[float] = 2.0
    join_timeout: float = 30.0

    def __post_init__(self) -> None:
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

    @classmethod
    def from_env(cls, **overrides) -> "RuntimeConfig":
        """Defaults, overlaid with ``REPRO_*`` env vars, then kwargs.

        ``REPRO_WORKER_DEADLINE=0`` / ``REPRO_HEARTBEAT_INTERVAL=0``
        (or any non-positive value) disable the corresponding feature.
        """
        values: dict = {}
        poll = env_float("REPRO_POLL_TIMEOUT")
        if poll is not None:
            if poll <= 0:
                # Unlike the deadline/heartbeat knobs there is no
                # "disabled" reading of a non-positive poll timeout;
                # fail here so the error names the variable instead of
                # surfacing as a bare constructor complaint.
                raise ValueError(
                    f"environment variable REPRO_POLL_TIMEOUT must be "
                    f"> 0, got {poll}"
                )
            values["poll_timeout"] = poll
        deadline = env_float("REPRO_WORKER_DEADLINE")
        if deadline is not None:
            values["worker_deadline"] = _disable_if_nonpositive(deadline)
        heartbeat = env_float("REPRO_HEARTBEAT_INTERVAL")
        if heartbeat is not None:
            values["heartbeat_interval"] = (
                _disable_if_nonpositive(heartbeat)
            )
        join = env_float("REPRO_JOIN_TIMEOUT")
        if join is not None:
            values["join_timeout"] = join
        values.update(overrides)
        return cls(**values)


#: Module-level default (environment not consulted; use
#: :meth:`RuntimeConfig.from_env` for operational overrides).
DEFAULT_CONFIG = RuntimeConfig()
