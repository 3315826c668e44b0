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
job-assign the service handed the admitted job to the shared pool:
           emitted at admission, right after ``job-submit`` in the
           same step of the event loop, as the record goes to
           ``pool.submit`` (admission resolves nothing; the pool
           worker that runs the job resolves its cost profile)
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

The DES writes each chunk-level event as a *row*: a plain tuple of
the eleven :class:`ObsEvent` fields in order.  A buffered trace is an
:class:`EventList` over those rows, which turns them into
:class:`ObsEvent` objects the first time anything reads it; the
digest and the wire text read the rows as they are.

``t`` is the substrate's own clock -- virtual seconds in the
simulators, seconds since run start in the real runtimes; ``wall`` is
absolute wall-clock time where one exists.  Both are excluded from
:func:`repro.obs.export.canonical_stream`, which is what makes
simulator and runtime traces directly diffable.
"""

from __future__ import annotations

from typing import Any, Iterator, NamedTuple, Optional

__all__ = [
    "EVENT_KINDS",
    "SOURCES",
    "LIFECYCLE_KINDS",
    "JOB_KINDS",
    "ObsEvent",
    "EventList",
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

    A named tuple, so a plain tuple of the same eleven fields (a
    *row*) stands for one: the per-chunk emission sites (the
    chassis's ``compute``, each engine's ``request``/``assign``/
    ``result``/``fetch-add``) emit rows, and :class:`EventList` turns
    them into events when they are read.  It is still a *tuple* to
    ``json``: a traced reply ships rows on purpose
    (:func:`~repro.obs.export.events_json`); anything else leaving the
    process goes through :meth:`to_dict`.

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
        watch batch, a ``trace`` reply and a JSONL line build one per
        event.
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
        """The inverse of :meth:`to_dict`; a ``doc`` it cannot read
        (a missing field, a wrong type, no dict at all) raises
        :class:`SchemaError`."""
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
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"not an event dict: {exc}") from exc


class EventList(object):
    """A trace's events, kept as rows until something reads them.

    Wraps the list an emission loop appends to (:meth:`rows`).  A row
    is the eleven :class:`ObsEvent` fields in order; an ``ObsEvent``
    is a valid row.  Any read -- iteration, indexing, ``==``,
    ``repr`` -- first converts the rows not yet read into events *in
    place* (``ObsEvent._make``, which rejects a row of the wrong width
    with ``TypeError``), so readers only ever see ``ObsEvent``
    objects and the list is never copied.  Rows appended after a read
    are converted at the next one.

    Why rows: CPython's cyclic garbage collector never stops tracking
    a tuple *subclass*, so a trace of ``ObsEvent`` objects is walked by
    every older-generation collection, while a row of strings and
    numbers is untracked at its first young one.
    :func:`~repro.obs.export.stream_digest` and
    :func:`~repro.obs.export.events_json` read :meth:`rows` by
    position, so a job that wants only its digest or its reply body
    builds no ``ObsEvent`` at all.  It pickles as rows.
    """

    __slots__ = ("_rows", "_read")

    def __init__(self, rows: Optional[list] = None) -> None:
        self._rows: list = [] if rows is None else rows
        #: ``_rows[:_read]`` are already ``ObsEvent`` objects.
        self._read = 0

    def _events(self) -> list:
        rows = self._rows
        n = len(rows)
        if self._read < n:
            make = ObsEvent._make
            # One slot at a time: each row is freed as its event
            # lands, so the trace never exists twice.
            for i in range(self._read, n):
                rows[i] = make(rows[i])
            self._read = n
        return rows

    def rows(self) -> list:
        """The backing list: rows, and events where already read."""
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[ObsEvent]:
        return iter(self._events())

    def __getitem__(self, index: Any) -> Any:
        return self._events()[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EventList):
            other = other._events()
        return self._events() == other

    def __repr__(self) -> str:
        return repr(self._events())

    def __reduce__(self) -> tuple[type, tuple[list[tuple]]]:
        # Exact tuples, whether or not the events were read.
        return (EventList, (list(map(tuple, self._rows)),))


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
