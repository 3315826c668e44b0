"""The unified event schema: one span/event model for every substrate.

The paper's whole evaluation is per-worker timing behaviour -- chunk
sizes, idle gaps, parallel times -- compared *across* scheduling
schemes.  Before this module each substrate recorded timing its own
way (``ChunkRecord`` lists in the simulators, ``(wid, start, stop)``
tuples in the master runtime, pickled shard records in the decentral
runtime), so cross-substrate questions ("does the simulator's chunk
lifecycle match the real runtime's?") needed substrate-specific
plumbing.  :class:`ObsEvent` is the one record type they all emit:

========== ===========================================================
kind       meaning
========== ===========================================================
request    a worker asked for work (master request / counter claim)
assign     the dispatcher handed an interval to a worker
compute    a worker started executing ``[start, stop)``; ``value``
           carries the duration
result     the interval's results became durable (landed on the
           master, or hit the shard file / flush arrival)
terminate  a worker was released (loop exhausted for it)
heartbeat  a liveness beat (real runtime only)
acp-update a worker registered its ACP with the scheduler
fetch-add  one atomic counter access (decentral); ``value`` carries
           the queueing delay (contention), ``detail`` is ``global``
           or ``local``
steal      a TreeS thief took ``[start, stop)`` from ``detail``'s PE
park       the dispatcher parked an idle worker (work may reappear)
fault      a fault fired: ``detail`` is ``death`` / ``stall`` /
           ``delay`` / ``loss`` / ``spike`` / ``deadline``
restart    a dead worker rejoined
repair     the decentral parent re-executed a hole after the run
adapt      the adaptive meta-scheduler opened a stage: ``[start,
           stop)`` is the stage window, ``detail`` the decision
           (``select TSS`` / ``retune CSS(64) k=12``), ``value`` the
           efficiency posted for the previous stage
job-submit the service admitted a tenant's job (``detail`` carries
           ``tenant=... job=... scheme=...``)
job-assign the service finished cost-profile resolution and queued
           the job onto the shared pool
job-result the job reached a terminal success; ``value`` carries the
           pool execution time, ``worker`` the slot that ran it
job-reject admission refused (``detail`` names the backpressure
           reason: ``queue-full`` / ``tenant-quota`` / ``draining``)
           or the job failed terminally
========== ===========================================================

The four ``job-*`` kinds are the *service-level* lifecycle -- one
event per job transition, emitted by :mod:`repro.service.server` into
per-tenant streams -- as opposed to the chunk-level lifecycle the
substrates emit per interval.

``t`` is the substrate's own clock -- virtual seconds in the
simulators, seconds since run start in the real runtimes; ``wall`` is
absolute wall-clock time where one exists.  Both are excluded from
:func:`repro.obs.export.canonical_stream`, which is what makes
simulator and runtime traces directly diffable.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

__all__ = [
    "EVENT_KINDS",
    "SOURCES",
    "LIFECYCLE_KINDS",
    "JOB_KINDS",
    "ObsEvent",
    "make_event",
    "SchemaError",
    "validate_event",
]

#: Every legal ``ObsEvent.kind``.
EVENT_KINDS = frozenset({
    "request",
    "assign",
    "compute",
    "result",
    "terminate",
    "heartbeat",
    "acp-update",
    "fetch-add",
    "steal",
    "park",
    "fault",
    "restart",
    "repair",
    "adapt",
    "job-submit",
    "job-assign",
    "job-result",
    "job-reject",
})

#: The service-level job lifecycle subset (one event per job
#: transition, vs. :data:`LIFECYCLE_KINDS` which is per chunk).
JOB_KINDS = frozenset({
    "job-submit", "job-assign", "job-result", "job-reject",
})

#: The chunk-lifecycle subset (the ``request -> assign -> compute ->
#: result`` spine every substrate shares).
LIFECYCLE_KINDS = frozenset({"request", "assign", "compute", "result"})

#: Every execution path that emits events.  The three ``sim.*`` tags
#: are the ``SRC`` of a ``simulation.des.DesCluster`` subclass; the
#: chassis emits compute/fault/restart/park/terminate under it.
SOURCES = frozenset({
    "sim.master",       # simulation.engine.MasterSlaveSimulation.SRC
    "sim.tree",         # simulation.tree_engine.TreeSimulation.SRC
    "sim.decentral",    # decentral.sim_engine.DecentralSimulation.SRC
    "runtime.master",   # runtime.master.master_loop (master side)
    "runtime.worker",   # runtime.worker.worker_main (shard writer)
    "runtime.decentral",  # decentral.executor (workers + repair)
    "chaos",            # the fault script (runtime.chassis)
    "service",          # service.server job-level lifecycle
})

#: Kinds that must carry an interval.
_INTERVAL_KINDS = frozenset({"compute", "result", "steal", "repair"})


class SchemaError(ValueError):
    """An event violates the unified schema."""


class ObsEvent(NamedTuple):
    """One observation; immutable, hashable, picklable.

    A named tuple: the DES builds several per chunk, so construction
    cost is the observed run's bill.  The per-chunk emission sites
    (the chassis's ``compute``, each engine's ``request``/``assign``/
    ``result``/``fetch-add``) build theirs with :func:`make_event`.
    It is still a *tuple* to ``json``: anything leaving the process
    goes through :meth:`to_dict`.

    ``worker`` is ``-1`` for events not attributable to one worker
    (e.g. a master stall).  ``value`` is the kind-specific measurement
    (compute duration, fetch-add queueing delay, stall length);
    ``detail`` the kind-specific qualifier (fault kind, counter tier,
    steal victim).
    """

    kind: str
    source: str
    t: float
    worker: int = -1
    start: Optional[int] = None
    stop: Optional[int] = None
    stage: Optional[int] = None
    acp: Optional[int] = None
    value: Optional[float] = None
    detail: str = ""
    wall: Optional[float] = None

    def to_dict(self) -> dict[str, Any]:
        """Compact dict form: unset optional fields are omitted.

        Written out field by field from one unpacking of the tuple: a
        traced job's ``wait`` reply builds one per event.
        """
        (kind, source, t, worker, start, stop, stage, acp, value,
         detail, wall) = self
        doc: dict[str, Any] = {"kind": kind, "source": source, "t": t}
        if worker != -1:
            doc["worker"] = worker
        if start is not None:
            doc["start"] = start
        if stop is not None:
            doc["stop"] = stop
        if stage is not None:
            doc["stage"] = stage
        if acp is not None:
            doc["acp"] = acp
        if value is not None:
            doc["value"] = value
        if wall is not None:
            doc["wall"] = wall
        if detail:
            doc["detail"] = detail
        return doc

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "ObsEvent":
        try:
            return cls(
                kind=doc["kind"],
                source=doc["source"],
                t=float(doc["t"]),
                worker=int(doc.get("worker", -1)),
                start=doc.get("start"),
                stop=doc.get("stop"),
                stage=doc.get("stage"),
                acp=doc.get("acp"),
                value=doc.get("value"),
                detail=doc.get("detail", ""),
                wall=doc.get("wall"),
            )
        except KeyError as exc:
            raise SchemaError(f"event dict missing field {exc}") from exc


_tuple_new = tuple.__new__


def make_event(
    kind: str,
    source: str,
    t: float,
    worker: int,
    start: Optional[int],
    stop: Optional[int],
    stage: Optional[int],
    acp: Optional[int],
    value: Optional[float],
    detail: str,
    wall: Optional[float],
) -> ObsEvent:
    """``ObsEvent`` from all eleven fields, positionally, no defaults.

    Equal to ``ObsEvent(...)`` of the same fields at about half the
    cost (no keyword-default ``__new__`` behind ``type.__call__``).
    The caller writes the unset fields out: ``None``, ``""`` for
    ``detail``, ``-1`` for no worker.
    """
    return _tuple_new(ObsEvent, (
        kind, source, t, worker, start, stop, stage, acp, value, detail,
        wall,
    ))


def validate_event(event: ObsEvent) -> ObsEvent:
    """Check ``event`` against the schema; returns it or raises.

    Collectors do *not* validate on the hot path (emission must stay
    cheap); validation belongs in tests, importers and the auditor.
    """
    if event.kind not in EVENT_KINDS:
        raise SchemaError(
            f"unknown event kind {event.kind!r}; legal kinds: "
            f"{sorted(EVENT_KINDS)}"
        )
    if event.source not in SOURCES:
        raise SchemaError(
            f"unknown event source {event.source!r}; legal sources: "
            f"{sorted(SOURCES)}"
        )
    if not isinstance(event.t, (int, float)) or event.t < 0:
        raise SchemaError(
            f"event time must be a non-negative number, got {event.t!r}"
        )
    if event.kind in _INTERVAL_KINDS:
        if event.start is None or event.stop is None:
            raise SchemaError(
                f"{event.kind!r} events must carry an interval, got "
                f"start={event.start!r} stop={event.stop!r}"
            )
        if event.stop <= event.start or event.start < 0:
            raise SchemaError(
                f"{event.kind!r} event interval [{event.start}, "
                f"{event.stop}) is empty or negative"
            )
    if event.start is not None and event.stop is not None \
            and event.stop < event.start:
        raise SchemaError(
            f"event interval [{event.start}, {event.stop}) is reversed"
        )
    if event.kind == "fault" and not event.detail:
        raise SchemaError("fault events must name the fault in `detail`")
    if event.value is not None and event.value < 0:
        raise SchemaError(
            f"event value must be >= 0, got {event.value!r}"
        )
    return event
