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
:class:`EventList`: one flat list that keeps the eleven fields of
every event in a row, and no container per event.  A read builds
:class:`ObsEvent` objects on demand and keeps none; the digest and
the wire text read the flat list's columns as they are.

``t`` is the substrate's own clock -- virtual seconds in the
simulators, seconds since run start in the real runtimes; ``wall`` is
absolute wall-clock time where one exists.  Both are excluded from
:func:`repro.obs.export.canonical_stream`, which is what makes
simulator and runtime traces directly diffable.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Iterable, Iterator, NamedTuple, \
    Optional, Sequence

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
    ``result``/``fetch-add``) emit rows, and :class:`EventList` keeps
    their fields and builds events when they are read.  It is still a
    *tuple* to ``json``: a traced reply ships rows on purpose
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


#: Fields per event: the width of a row, the stride of a flat store.
WIDTH = len(ObsEvent._fields)


class EventList(object):
    """A trace's events, kept as one flat list of their fields.

    The store holds the eleven :class:`ObsEvent` fields of every event
    in a row, in field order: event ``i`` is ``flat[11 * i:11 * i +
    11]``.  Its one writer is :meth:`sink`, the list's ``extend``: a
    row or an ``ObsEvent`` (both eleven-field tuples) goes in field by
    field, and the tuple itself is freed at once.  A read -- ``len``,
    iteration, indexing, ``==``, ``repr``, :meth:`rows` -- builds what
    it returns from the store and keeps nothing, so a trace that has
    been read costs what an unread one does.  A store whose length is
    not a multiple of eleven raises :class:`SchemaError` at any read.

    Why flat: CPython's cyclic garbage collector tracks a tuple until
    its first young collection, and an ``ObsEvent`` (a tuple
    *subclass*) for good, so a trace of one container per event fed
    every collection while it was kept.  The store is one tracked list
    of strings, numbers and ``None``, none of them tracked.
    :func:`~repro.obs.export.stream_digest` and
    :func:`~repro.obs.export.events_json` read its columns by stride
    (:meth:`flat`), so a job that wants only its digest or its reply
    body builds no ``ObsEvent``.  It pickles as its flat list.
    """

    __slots__ = ("_flat",)

    def __init__(self, rows: Sequence[Sequence] = ()) -> None:
        """The trace of ``rows`` (rows or ``ObsEvent`` objects); a row
        whose width is not eleven raises :class:`SchemaError`."""
        widths = set(map(len, rows))
        if widths - {WIDTH}:
            raise SchemaError(
                f"a trace row has {WIDTH} fields, got widths "
                f"{sorted(widths - {WIDTH})}"
            )
        self._flat: list = list(chain.from_iterable(rows))

    @classmethod
    def of_flat(cls, flat: list) -> "EventList":
        """The trace whose store is ``flat`` (kept, not copied)."""
        events = cls.__new__(cls)
        events._flat = flat
        return events

    def flat(self) -> list:
        """The store itself, eleven fields per event in field order;
        raises :class:`SchemaError` when its length is not a multiple
        of eleven."""
        flat = self._flat
        if len(flat) % WIDTH:
            raise SchemaError(
                f"a trace store holds {len(flat)} fields, not a "
                f"multiple of {WIDTH}"
            )
        return flat

    def sink(self) -> Callable[[Iterable], None]:
        """The one writer: the store's ``extend``, fed one row (or
        ``ObsEvent``) per event."""
        return self._flat.extend

    def rows(self) -> list[tuple]:
        """A new list of the events' fields as plain tuples."""
        return list(zip(*[iter(self.flat())] * WIDTH))

    def __len__(self) -> int:
        return len(self.flat()) // WIDTH

    def __iter__(self) -> Iterator[ObsEvent]:
        return map(ObsEvent._make, zip(*[iter(self.flat())] * WIDTH))

    def __getitem__(self, index: Any) -> Any:
        flat = self.flat()
        # Where each event starts: a range indexes and slices as the
        # list of events would, negative indices and IndexError too.
        at = range(0, len(flat), WIDTH)[index]
        if isinstance(at, range):
            return [ObsEvent._make(flat[i:i + WIDTH]) for i in at]
        return ObsEvent._make(flat[at:at + WIDTH])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EventList):
            return self.flat() == other.flat()
        return list(self) == other

    def __repr__(self) -> str:
        return repr(list(self))

    def __reduce__(self) -> tuple[Callable, tuple[list]]:
        return (EventList.of_flat, (self._flat,))


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
