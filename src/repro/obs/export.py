"""Exporters: JSONL, Chrome trace-event format, canonical stream.

* **JSONL** is the interchange format: one compact event dict per
  line, loadable by :func:`read_jsonl` (round-trips exactly).
* **Chrome trace-event format** (``chrome://tracing`` / Perfetto):
  one track per worker.  Compute spans become complete ("X") events,
  everything else instant ("i") events, so a captured run -- simulated
  or real -- can be inspected on a zoomable timeline.
* The **canonical stream** is the cross-substrate diff surface: the
  lifecycle events that are *deterministic* for a scheme (the executed
  interval tiling), stripped of clocks and worker identity, sorted.
  A simulated run and a real run of the same scheme under the same
  fault plan produce byte-identical canonical streams -- that equality
  is what validates the simulator against reality (see
  ``tests/obs/test_cross_substrate.py``).
* The **JSON codec** is here too, the only module that imports
  orjson: :func:`exact_bytes`, :func:`json_loads`, :func:`event_line`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from itertools import islice
from typing import Any, Callable, Iterable, Optional, Sequence, Union

import orjson

from .events import WIDTH, EventList, ObsEvent, SchemaError

__all__ = [
    "to_jsonl",
    "write_jsonl",
    "read_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "canonical_stream",
    "stream_digest",
    "tiling_digest",
    "events_json",
    "event_line",
    "BULK_DOMAIN",
    "ROW_DOMAIN",
    "FRAME_DOMAIN",
    "exact_bytes",
    "json_dumps",
    "json_loads",
    "json_bytes",
    "all_finite",
    "finite",
]

#: Microseconds per unit of event time (Chrome traces use us).
_US = 1_000_000.0


def event_line(ev: ObsEvent) -> str:
    """One event's JSONL line, without its newline: the event's dict,
    keys sorted.  The one writer of a trace line (:func:`to_jsonl`,
    ``verify.audit_subscription``)."""
    return json.dumps(ev.to_dict(), sort_keys=True)


def to_jsonl(events: Iterable[ObsEvent]) -> str:
    """Serialize events as JSON lines (:func:`event_line` per line)."""
    return "".join(event_line(ev) + "\n" for ev in events)


def write_jsonl(path: Union[str, os.PathLike],
                events: Iterable[ObsEvent]) -> int:
    """Write events to ``path``; returns the number written."""
    events = list(events)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_jsonl(events))
    return len(events)


def read_jsonl(path: Union[str, os.PathLike]) -> list[ObsEvent]:
    """Load events from the JSONL file at ``path``.

    Blank lines are skipped, and a torn trailing line (killed writer)
    is ignored.  Any other line that is not an event's JSON object
    raises :class:`~repro.obs.SchemaError` (or
    :class:`json.JSONDecodeError` where it is not JSON at all).
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    events: list[ObsEvent] = []
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            events.append(ObsEvent.from_dict(_line_object(line)))
        except ValueError:
            if i == len(lines) - 1:
                break  # torn tail from a killed writer
            raise
    return events


def _line_object(line: str) -> Any:
    """``json.loads(line)``, where JSON that :mod:`json` cannot build
    raises :class:`SchemaError`: nesting deeper than the interpreter's
    stack (``RecursionError``) or an int of more digits than
    :func:`int` converts (a bare ``ValueError``)."""
    try:
        return json.loads(line)
    except json.JSONDecodeError:
        raise
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"unreadable event line: {exc}") from exc


def to_chrome_trace(events: Sequence[ObsEvent]) -> dict:
    """Events as a Chrome trace-event document (Perfetto-loadable).

    Layout: one *process* per source substrate, one *thread* (track)
    per worker.  Compute events render as spans (phase "X", duration
    from ``value``); every other kind is an instant marker (phase "i")
    so faults, heartbeats and counter ops line up against the spans.
    """
    sources = sorted({ev.source for ev in events})
    pid_of = {src: i + 1 for i, src in enumerate(sources)}
    trace: list[dict] = []
    for src in sources:
        trace.append({
            "name": "process_name", "ph": "M", "pid": pid_of[src],
            "tid": 0, "args": {"name": src},
        })
    named: set[tuple[int, int]] = set()
    for ev in events:
        pid = pid_of[ev.source]
        tid = ev.worker if ev.worker >= 0 else 9999
        if (pid, tid) not in named:
            named.add((pid, tid))
            trace.append({
                "name": "thread_name", "ph": "M", "pid": pid,
                "tid": tid,
                "args": {
                    "name": (
                        f"worker {ev.worker}" if ev.worker >= 0
                        else "dispatcher"
                    )
                },
            })
        args = {
            k: v for k, v in ev.to_dict().items()
            if k not in ("kind", "source", "t", "worker")
        }
        if ev.kind == "compute":
            trace.append({
                "name": f"compute [{ev.start}, {ev.stop})",
                "cat": ev.kind,
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": ev.t * _US,
                "dur": (ev.value or 0.0) * _US,
                "args": args,
            })
        else:
            trace.append({
                "name": ev.kind + (f":{ev.detail}" if ev.detail else ""),
                "cat": ev.kind,
                "ph": "i",
                "s": "t",
                "pid": pid,
                "tid": tid,
                "ts": ev.t * _US,
                "args": args,
            })
    return {"traceEvents": trace, "displayTimeUnit": "ms"}


def write_chrome_trace(path: Union[str, os.PathLike],
                       events: Sequence[ObsEvent]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_chrome_trace(events), handle)


def canonical_stream(events: Iterable[ObsEvent]) -> list[dict]:
    """The substrate-independent view of a trace.

    Keeps the *durable* lifecycle facts -- which intervals were
    executed and delivered (``result`` events) -- and drops everything
    clock- or identity-bound: ``t`` and ``wall`` (virtual vs wall
    time), ``worker`` (which PE won a chunk is racy on real hardware),
    ``source``, and per-substrate extras.  For a deterministic scheme
    the surviving stream is identical across every substrate, fault
    plan or not: requeued intervals are reassigned verbatim, so the
    executed tiling never moves.
    """
    rows = [
        {"kind": ev.kind, "start": ev.start, "stop": ev.stop}
        for ev in events
        if ev.kind == "result" and ev.start is not None
    ]
    rows.sort(key=lambda r: (r["start"], r["stop"]))
    return rows


def _flat(events: Iterable) -> list:
    """The flat store to read columns from: an :class:`EventList`'s
    own, or the one built from plain events or rows."""
    if not isinstance(events, EventList):
        events = EventList(list(events))
    return events.flat()


def _result_pairs(flat: list) -> list[tuple]:
    """``(start, stop)`` of every ``result`` event that has a start,
    read off the store's columns.  The result positions come from the
    kind column first (one C-level ``list.index`` scan per result), so
    only result events are touched by Python."""
    find = flat[0::WIDTH].index
    starts, stops = flat[4::WIDTH], flat[5::WIDTH]
    pairs = []
    i = -1
    try:
        while True:
            i = find("result", i + 1)
            if starts[i] is not None:
                pairs.append((starts[i], stops[i]))
    except ValueError:  # no result event after ``i``
        return pairs


def _pairs_digest(pairs: Iterable[tuple[int, int]]) -> str:
    """sha256 of the canonical stream whose ``result`` rows are the
    ``(start, stop)`` pairs, in any order: the one payload writer."""
    payload = "\n".join(
        '{"kind": "result", "start": %d, "stop": %d}' % pair
        for pair in sorted(pairs)
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def stream_digest(events: Iterable[ObsEvent]) -> str:
    """sha256 over the canonical stream's JSONL serialization.

    Defined as the digest of ``"\\n".join(json.dumps(row,
    sort_keys=True) for row in canonical_stream(events))``; computed in
    one pass over ``(start, stop)`` pairs, writing each line directly
    (every job pays this, and a row dict plus a ``json.dumps`` call per
    event was a tenth of an observed run).  It reads the kind, start
    and stop columns of an :class:`EventList`'s flat store as stride
    slices, so no ``ObsEvent`` is built.  ``tests/obs/test_export.py``
    holds the two byte-identical.
    """
    return _pairs_digest(_result_pairs(_flat(events)))


def tiling_digest(chunks) -> str:
    """:func:`stream_digest` of a simulated run, read off its chunk rows.

    ``chunks`` is a result's ``SimResult.chunks``, whose rows are
    ``(worker, start, stop, ...)``.  A run's rows are its executed
    tiling -- lost chunks are un-booked, a requeued interval is booked
    once more where it ran -- and its trace has one ``result`` event
    per row, so the two digests are equal on every engine, faults
    included (``tests/obs/test_tiling_digest.py``).  A run that emitted
    no trace has its digest all the same.
    """
    return _pairs_digest((row[1], row[2]) for row in chunks.rows())


# -- the one JSON codec: orjson's bytes where they are exact ----------------

#: orjson's options per type domain.  Bulk text (results, traces)
#: writes numpy scalars as the numbers they hold.
BULK_DOMAIN = orjson.OPT_SERIALIZE_NUMPY
#: Chunk rows, type-exact: a numpy scalar or an int subclass is refused,
#: so such rows cross a pickle as rows.
ROW_DOMAIN = orjson.OPT_PASSTHROUGH_SUBCLASS
#: A frame: keys sorted, dataclasses and datetimes refused, as
#: :mod:`json` does.
FRAME_DOMAIN = (orjson.OPT_SORT_KEYS | orjson.OPT_PASSTHROUGH_DATACLASS
                | orjson.OPT_PASSTHROUGH_DATETIME)

#: :mod:`json`'s compact encoders, keys as given and sorted (``encode``
#: is looked up per call, so a pin on ``JSONEncoder.encode`` sees it).
_JSON = (json.JSONEncoder(separators=(",", ":")),
         json.JSONEncoder(separators=(",", ":"), sort_keys=True))


def exact_bytes(doc: Any, domain: int,
                finite: Callable[[Any], bool]) -> Optional[bytes]:
    """orjson's bytes of ``doc`` under the ``domain``'s options when
    :func:`json.loads` reads them back as ``doc``, else None: the one
    place that decision is made, for every document that leaves a
    process (frames, reply bodies, chunk row text, sweep lines).

    orjson refuses an int beyond 64 bits and a lone surrogate, and
    writes a NaN or an infinity as ``null``: ``finite(doc)``, the
    caller's check that every float in ``doc`` is finite, is asked
    only when the bytes hold a ``null``.
    """
    try:
        data = orjson.dumps(doc, option=domain)
        if b"null" not in data or finite(doc):
            return data
    except (TypeError, OverflowError):
        # TypeError: orjson's refusal (``JSONEncodeError`` is one), or
        # a non-number in a checked column; OverflowError: an int too
        # large to be a float.
        pass
    return None


def json_dumps(doc: Any, sort_keys: bool = False) -> bytes:
    """:mod:`json`'s compact bytes of ``doc``: what a writer falls back
    to where :func:`exact_bytes` gives None (``NaN`` / ``Infinity``
    tokens, ``\\uXXXX`` escapes, ints of any size)."""
    return _JSON[sort_keys].encode(doc).encode()


def json_loads(payload: bytes) -> Any:
    """:func:`json.loads`'s answer for ``payload``, by orjson where it
    gives one: the one tolerant reader.

    A payload that opens with a space (``service.protocol``'s marker)
    was written by :mod:`json` and may hold an int beyond 64 bits,
    which orjson would read as a float: :mod:`json` reads it, and
    whatever orjson refuses (``NaN`` / ``Infinity`` tokens, numbers
    beyond a double's range, lone surrogate escapes).
    """
    if payload[:1] != b" ":
        try:
            return orjson.loads(payload)
        except orjson.JSONDecodeError:
            pass
    return json.loads(payload.decode("utf-8"))


def all_finite(columns: Iterable[Sequence]) -> bool:
    """True when every number of every column is finite: a bulk
    writer's check, over the columns that hold every float.

    One C-level :func:`math.fsum` per column: a NaN or an infinity
    makes the sum non-finite (or raises ``ValueError`` for ``inf +
    -inf``), so a finite sum clears the whole column.  Only a column
    whose sum is not finite or overflows is scanned number by number.
    ``fsum`` adds C doubles, so numpy scalars that overflow raise
    ``OverflowError`` here rather than warn.  Raises ``TypeError`` on
    a non-number and ``OverflowError`` on an int too large to be a
    float, as :func:`math.isfinite` does.
    """
    for column in columns:
        try:
            if math.isfinite(math.fsum(column)):
                continue
        except (OverflowError, ValueError):
            pass
        if not all(map(math.isfinite, column)):
            return False
    return True


def finite(doc: Any) -> bool:
    """True when no float anywhere in ``doc`` is a NaN or an infinity:
    a frame's check, a walk that stops at the first one."""
    stack = [doc]
    while stack:
        item = stack.pop()
        if isinstance(item, float):
            if not math.isfinite(item):
                return False
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
    return True


def json_bytes(doc: Any, columns: Iterable[Sequence]) -> bytes:
    """Compact JSON of ``doc``, as UTF-8 bytes, that :func:`json.loads`
    reads back as ``doc``: the one writer of bulk text (results, sweep
    lines and traces).

    orjson writes it -- floats in their shortest round-trip form,
    non-ASCII as raw UTF-8, numpy scalars as the numbers they hold --
    unless that would change the answer (:func:`exact_bytes`), and
    then :mod:`json` does (:func:`json_dumps`).  ``columns`` hold
    every float in ``doc``, checked a column at a time
    (:func:`all_finite`).
    """
    data = exact_bytes(doc, BULK_DOMAIN, lambda _: all_finite(columns))
    return json_dumps(doc) if data is None else data


#: Rows :func:`events_json` encodes per orjson call: each batch of row
#: tuples is freed before the next is built, so a long trace's rows
#: never trip a young collection (700 tracked allocations).
ROWS_PER_BATCH = 256


def events_json(events: Sequence[ObsEvent]) -> bytes:
    """Compact JSON array of the trace's rows, as UTF-8 bytes: one
    array of the eleven :class:`ObsEvent` fields in order per event,
    ``null`` for an unset field.

    The writer used where a trace leaves the process (the ``trace``
    member of a ``wait`` reply), deciding as :func:`json_bytes` does:
    ``json.loads(events_json(evs)) == [list(ev) for ev in evs]``, and
    the bytes are orjson's whenever every value is finite and
    encodable (``tests/obs/test_export.py`` holds both).  Like
    :func:`stream_digest` it reads an :class:`EventList`'s flat store:
    the rows are zipped from it once, as plain tuples (orjson refuses
    a named tuple), :data:`ROWS_PER_BATCH` at a time, and the float
    columns (``t``, ``value``, ``wall``) are its stride slices.  A
    batch's bytes are orjson's array less its brackets, so the joined
    batches are the bytes of the whole.
    """
    flat = _flat(events)
    columns = (
        flat[2::WIDTH],
        # ``None`` (unset) and 0.0 are left out alike: 0.0 is finite.
        list(filter(None, flat[8::WIDTH])),
        list(filter(None, flat[10::WIDTH])),
    )
    verdict: list[bool] = []

    def finite(_: Any) -> bool:
        # The trace's columns, checked once for every batch.
        if not verdict:
            verdict.append(all_finite(columns))
        return verdict[0]

    rows = zip(*[iter(flat)] * WIDTH)
    parts = []
    while batch := list(islice(rows, ROWS_PER_BATCH)):
        data = exact_bytes(batch, BULK_DOMAIN, finite)
        if data is None:
            return json_dumps(list(zip(*[iter(flat)] * WIDTH)))
        parts.append(data[1:-1])
    return b"[%s]" % b",".join(parts)
