"""Seeded, serializable fault plans -- one fault model for every substrate.

The paper's distributed schemes exist because real clusters are
nondedicated and unreliable; a :class:`FaultPlan` makes that
unreliability *injectable, reproducible, and machine-checkable*.  A plan
is pure data: a time-ordered set of fault events that the discrete-event
engines (:func:`repro.simulation.simulate`,
:func:`repro.simulation.simulate_tree`) and the real multiprocessing
runtime (:func:`repro.runtime.run_parallel`) all interpret with the same
semantics:

* :class:`WorkerDeath` -- fail-stop at ``at``: every message in flight
  and every undelivered result of the worker is lost; the master
  requeues the lost intervals FIFO (loop order) and survivors recompute
  them, so coverage of ``[0, I)`` stays exactly-once.
* :class:`WorkerRestart` -- the PE rejoins at ``at`` (a fresh process in
  the runtime, a revived state in the simulator) and asks for work like
  any idle slave.  Only meaningful after a death of the same worker.
* :class:`MessageDelay` -- the worker's first request transmitted at or
  after ``at`` is delayed by ``delay`` seconds (accounted as wait time).
* :class:`MessageLoss` -- the worker's first request at or after ``at``
  is dropped and retransmitted after :attr:`FaultPlan.retry_after`
  (loss == delay-by-retransmission, the view a request/reply protocol
  has of a lost datagram).
* :class:`MasterStall` -- the master serves nothing during
  ``[at, at + duration)`` (GC pause / scheduler hiccup).
* :class:`LoadSpike` -- ``extra_q`` extra runnable processes on the
  worker's host during ``[at, at + duration)``; in the simulator this
  overlays the node's :class:`~repro.simulation.loadgen.LoadTrace`, in
  the runtime it starts real matrix-add stressor processes.

Times are in *substrate seconds*: virtual seconds when a plan is applied
to the simulator, wall-clock seconds (optionally scaled, see
:meth:`FaultPlan.scaled`) when applied to the runtime.

Plans round-trip through JSON (:meth:`FaultPlan.to_json` /
:meth:`FaultPlan.from_json`) and can be generated reproducibly from a
seed (:meth:`FaultPlan.random`).  ``docs/fault_model.md`` documents the
full taxonomy and the invariants the auditor (:mod:`repro.verify`)
checks after a faulty run.
"""

from __future__ import annotations

import dataclasses
from typing import ClassVar, Iterable, Optional, Union, cast

import numpy as np

__all__ = [
    "ChaosError",
    "WorkerDeath",
    "WorkerRestart",
    "MessageDelay",
    "MessageLoss",
    "MasterStall",
    "LoadSpike",
    "FaultEvent",
    "FaultPlan",
]


class ChaosError(ValueError):
    """Raised for malformed fault plans or unsupported applications."""


def _check_time(at: float) -> None:
    if not (at >= 0.0):  # also rejects NaN
        raise ChaosError(f"event time must be >= 0, got {at}")


@dataclasses.dataclass(frozen=True)
class WorkerDeath(object):
    """Fail-stop: worker ``worker`` dies at time ``at``."""

    worker: int
    at: float
    kind: ClassVar[str] = "death"

    def __post_init__(self) -> None:
        _check_time(self.at)
        if self.worker < 0:
            raise ChaosError(f"worker must be >= 0, got {self.worker}")


@dataclasses.dataclass(frozen=True)
class WorkerRestart(object):
    """The (previously dead) worker rejoins at time ``at``."""

    worker: int
    at: float
    kind: ClassVar[str] = "restart"

    def __post_init__(self) -> None:
        _check_time(self.at)
        if self.worker < 0:
            raise ChaosError(f"worker must be >= 0, got {self.worker}")


@dataclasses.dataclass(frozen=True)
class MessageDelay(object):
    """The worker's first message at/after ``at`` is late by ``delay``."""

    worker: int
    at: float
    delay: float
    kind: ClassVar[str] = "delay"

    def __post_init__(self) -> None:
        _check_time(self.at)
        if self.worker < 0:
            raise ChaosError(f"worker must be >= 0, got {self.worker}")
        if not (self.delay > 0.0):
            raise ChaosError(f"delay must be > 0, got {self.delay}")


@dataclasses.dataclass(frozen=True)
class MessageLoss(object):
    """The worker's first message at/after ``at`` is dropped once."""

    worker: int
    at: float
    kind: ClassVar[str] = "loss"

    def __post_init__(self) -> None:
        _check_time(self.at)
        if self.worker < 0:
            raise ChaosError(f"worker must be >= 0, got {self.worker}")


@dataclasses.dataclass(frozen=True)
class MasterStall(object):
    """The master serves no request during ``[at, at + duration)``."""

    at: float
    duration: float
    kind: ClassVar[str] = "stall"

    def __post_init__(self) -> None:
        _check_time(self.at)
        if not (self.duration > 0.0):
            raise ChaosError(
                f"stall duration must be > 0, got {self.duration}"
            )


@dataclasses.dataclass(frozen=True)
class LoadSpike(object):
    """``extra_q`` extra runnable processes during the window."""

    worker: int
    at: float
    duration: float
    extra_q: int = 2
    kind: ClassVar[str] = "spike"

    def __post_init__(self) -> None:
        _check_time(self.at)
        if self.worker < 0:
            raise ChaosError(f"worker must be >= 0, got {self.worker}")
        if not (self.duration > 0.0):
            raise ChaosError(
                f"spike duration must be > 0, got {self.duration}"
            )
        if self.extra_q < 1:
            raise ChaosError(f"extra_q must be >= 1, got {self.extra_q}")


FaultEvent = Union[
    WorkerDeath, WorkerRestart, MessageDelay, MessageLoss, MasterStall,
    LoadSpike,
]

_EVENT_TYPES: dict[str, type] = {
    "death": WorkerDeath,
    "restart": WorkerRestart,
    "delay": MessageDelay,
    "loss": MessageLoss,
    "stall": MasterStall,
    "spike": LoadSpike,
}


@dataclasses.dataclass(frozen=True)
class FaultPlan(object):
    """An ordered, validated set of fault events plus plan-wide knobs.

    ``retry_after`` is the retransmission backoff applied when a
    :class:`MessageLoss` fires (the lost request is resent after that
    many seconds).  ``seed`` records provenance when the plan came from
    :meth:`random`; it does not affect application.
    """

    events: tuple[FaultEvent, ...] = ()
    seed: Optional[int] = None
    retry_after: float = 0.05

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        if not (self.retry_after > 0.0):
            raise ChaosError(
                f"retry_after must be > 0, got {self.retry_after}"
            )
        for ev in self.events:
            if getattr(ev, "kind", None) not in _EVENT_TYPES:
                raise ChaosError(f"not a fault event: {ev!r}")
        # Deaths and restarts of one worker must alternate in time,
        # starting with a death (a restart needs something to restart).
        by_worker: dict[int, list[FaultEvent]] = {}
        for ev in self.events:
            if ev.kind in ("death", "restart"):
                by_worker.setdefault(ev.worker, []).append(ev)
        for worker, sequence in by_worker.items():
            sequence = sorted(sequence, key=lambda e: e.at)
            expected = "death"
            last_at = -1.0
            for ev in sequence:
                if ev.kind != expected:
                    raise ChaosError(
                        f"worker {worker}: {ev.kind} at t={ev.at} out of "
                        f"order (deaths and restarts must alternate, "
                        f"starting with a death)"
                    )
                if ev.at <= last_at:
                    raise ChaosError(
                        f"worker {worker}: death/restart times must "
                        f"strictly increase (got {ev.at} after {last_at})"
                    )
                last_at = ev.at
                expected = "restart" if expected == "death" else "death"

    # -- views -------------------------------------------------------------

    def of_kind(self, kind: str) -> tuple[FaultEvent, ...]:
        """All events of one kind, in time order."""
        return tuple(sorted(
            (e for e in self.events if e.kind == kind),
            key=lambda e: e.at,
        ))

    @property
    def deaths(self) -> tuple[WorkerDeath, ...]:
        # Each event class pins ``kind`` as a ClassVar, so filtering by
        # kind recovers the concrete type; cast records that invariant.
        return cast("tuple[WorkerDeath, ...]", self.of_kind("death"))

    @property
    def restarts(self) -> tuple[WorkerRestart, ...]:
        return cast("tuple[WorkerRestart, ...]", self.of_kind("restart"))

    @property
    def stalls(self) -> tuple[MasterStall, ...]:
        return cast("tuple[MasterStall, ...]", self.of_kind("stall"))

    @property
    def spikes(self) -> tuple[LoadSpike, ...]:
        return cast("tuple[LoadSpike, ...]", self.of_kind("spike"))

    def message_faults(self, worker: int) -> list[tuple[float, str, float]]:
        """``(at, kind, extra_seconds)`` per delay/loss of one worker."""
        faults = []
        for ev in self.events:
            if ev.kind == "delay" and ev.worker == worker:
                faults.append((ev.at, "delay", ev.delay))
            elif ev.kind == "loss" and ev.worker == worker:
                faults.append((ev.at, "loss", self.retry_after))
        faults.sort()
        return faults

    @property
    def max_worker(self) -> int:
        """Highest worker index referenced (-1 if none)."""
        indices = [
            ev.worker for ev in self.events if hasattr(ev, "worker")
        ]
        return max(indices) if indices else -1

    @property
    def horizon(self) -> float:
        """Latest instant any event is still in effect."""
        edge = 0.0
        for ev in self.events:
            edge = max(edge, ev.at + getattr(ev, "duration", 0.0))
        return edge

    def scaled(self, factor: float) -> "FaultPlan":
        """The same plan with every time (and duration) scaled.

        Used to map a virtual-time plan onto wall-clock seconds when
        replaying it on the real runtime.
        """
        if not (factor > 0.0):
            raise ChaosError(f"scale factor must be > 0, got {factor}")
        scaled = []
        for ev in self.events:
            updates = {"at": ev.at * factor}
            if hasattr(ev, "duration"):
                updates["duration"] = ev.duration * factor
            if hasattr(ev, "delay"):
                updates["delay"] = ev.delay * factor
            scaled.append(dataclasses.replace(ev, **updates))
        return dataclasses.replace(
            self,
            events=tuple(scaled),
            retry_after=self.retry_after * factor,
        )

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        """A JSON-able document that :meth:`from_json` restores exactly."""
        return {
            "seed": self.seed,
            "retry_after": self.retry_after,
            "events": [
                {"kind": ev.kind, **dataclasses.asdict(ev)}
                for ev in self.events
            ],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FaultPlan":
        if not isinstance(doc, dict):
            raise ChaosError(
                f"a fault plan is an object, got {type(doc).__name__}"
            )
        events = []
        for entry in doc.get("events", ()):
            entry = dict(entry)
            kind = entry.pop("kind", None)
            if kind not in _EVENT_TYPES:
                raise ChaosError(f"unknown fault kind {kind!r}")
            events.append(_EVENT_TYPES[kind](**entry))
        return cls(
            events=tuple(events),
            seed=doc.get("seed"),
            retry_after=doc.get("retry_after", 0.05),
        )

    # -- generation --------------------------------------------------------

    @classmethod
    def random(
        cls,
        seed: int,
        workers: int,
        horizon: float = 1.0,
        deaths: int = 1,
        restart_probability: float = 0.5,
        delays: int = 1,
        losses: int = 1,
        stalls: int = 1,
        spikes: int = 1,
        retry_after: float = 0.05,
    ) -> "FaultPlan":
        """A reproducible plan drawn from ``seed``.

        Worker 0 is never killed, so at least one PE always survives and
        the loop can complete (the all-dead case is a separate,
        deliberately constructed test).  Deaths land in the first 80% of
        the horizon so the faults actually perturb the run.
        """
        if workers < 1:
            raise ChaosError(f"workers must be >= 1, got {workers}")
        if not (horizon > 0.0):
            raise ChaosError(f"horizon must be > 0, got {horizon}")
        rng = np.random.default_rng(seed)
        events: list[FaultEvent] = []
        mortal = list(range(1, workers))
        rng.shuffle(mortal)
        for victim in mortal[:max(0, int(deaths))]:
            at = float(rng.uniform(0.05, 0.8) * horizon)
            events.append(WorkerDeath(worker=victim, at=at))
            if rng.random() < restart_probability:
                # At least a millisecond after the death, but never
                # past a horizon shorter than that.
                back = float(rng.uniform(
                    min(at + 1e-3, horizon), horizon
                ))
                events.append(WorkerRestart(worker=victim, at=back))
        for _ in range(max(0, int(delays))):
            events.append(MessageDelay(
                worker=int(rng.integers(0, workers)),
                at=float(rng.uniform(0.0, horizon)),
                delay=float(rng.uniform(0.01, 0.10) * horizon),
            ))
        for _ in range(max(0, int(losses))):
            events.append(MessageLoss(
                worker=int(rng.integers(0, workers)),
                at=float(rng.uniform(0.0, horizon)),
            ))
        for _ in range(max(0, int(stalls))):
            events.append(MasterStall(
                at=float(rng.uniform(0.0, horizon)),
                duration=float(rng.uniform(0.01, 0.05) * horizon),
            ))
        for _ in range(max(0, int(spikes))):
            events.append(LoadSpike(
                worker=int(rng.integers(0, workers)),
                at=float(rng.uniform(0.0, 0.8) * horizon),
                duration=float(rng.uniform(0.1, 0.4) * horizon),
                extra_q=int(rng.integers(1, 4)),
            ))
        events.sort(key=lambda e: (e.at, e.kind,
                                   getattr(e, "worker", -1)))
        return cls(events=tuple(events), seed=int(seed),
                   retry_after=retry_after)

    def summary(self) -> str:
        """One line per event, time-ordered (for reports and the CLI)."""
        if not self.events:
            return "(empty fault plan)"
        lines = []
        for ev in sorted(self.events, key=lambda e: e.at):
            extra = ""
            if hasattr(ev, "duration"):
                extra = f" for {ev.duration:.3f}s"
            if hasattr(ev, "delay"):
                extra = f" by {ev.delay:.3f}s"
            target = (
                f"worker {ev.worker}" if hasattr(ev, "worker") else "master"
            )
            lines.append(f"  t={ev.at:8.3f}  {ev.kind:<7s} {target}{extra}")
        return "\n".join(lines)
