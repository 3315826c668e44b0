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
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import operator
import os
from typing import Any, Iterable, Optional, Sequence, Union

import orjson

from .events import EventList, ObsEvent

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
    "json_text",
    "orjson_exact",
    "all_finite",
]

#: Microseconds per unit of event time (Chrome traces use us).
_US = 1_000_000.0


def to_jsonl(events: Iterable[ObsEvent]) -> str:
    """Serialize events as JSON lines (compact dict per line)."""
    out = io.StringIO()
    for ev in events:
        out.write(json.dumps(ev.to_dict(), sort_keys=True))
        out.write("\n")
    return out.getvalue()


def write_jsonl(path: Union[str, os.PathLike],
                events: Iterable[ObsEvent]) -> int:
    """Write events to ``path``; returns the number written."""
    events = list(events)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_jsonl(events))
    return len(events)


def read_jsonl(source: Union[str, os.PathLike]) -> list[ObsEvent]:
    """Load events from a JSONL file path (or raw JSONL text).

    A string containing a newline (or starting with ``{``) is treated
    as JSONL text, anything else as a path.  Blank lines are skipped;
    a torn trailing line (killed writer) is ignored, mirroring the
    decentral shard reader's posture.
    """
    text: str
    if isinstance(source, str) and (
        "\n" in source or source.lstrip().startswith("{")
    ):
        text = source
    else:
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    events: list[ObsEvent] = []
    lines = text.split("\n")
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            events.append(ObsEvent.from_dict(json.loads(line)))
        except (json.JSONDecodeError, ValueError):
            if i == len(lines) - 1:
                break  # torn tail from a killed writer
            raise
    return events


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


def _rows(events: Iterable) -> Iterable:
    """What to read fields from by position: an :class:`EventList`'s
    rows, or the events themselves (an ``ObsEvent`` is a row)."""
    return events.rows() if isinstance(events, EventList) else events


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
    event was a tenth of an observed run).  Fields are read by
    position, from an :class:`EventList`'s rows, so no ``ObsEvent`` is
    built.  ``tests/obs/test_export.py`` holds the two byte-identical.
    """
    return _pairs_digest(
        (row[4], row[5]) for row in _rows(events)
        if row[0] == "result" and row[4] is not None
    )


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


#: :mod:`json`'s compact writer: what :func:`json_text` falls back to.
_dumps = json.JSONEncoder(separators=(",", ":")).encode
_T, _VALUE, _WALL = (operator.itemgetter(i) for i in (2, 8, 10))


def all_finite(columns: Iterable[Sequence]) -> bool:
    """True when every number of every column is finite.

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


def orjson_exact(doc: Any,
                 columns: Iterable[Sequence]) -> Optional[bytes]:
    """orjson's bytes of ``doc`` when :func:`json.loads` reads them
    back as ``doc``, else None.

    ``columns`` hold every float in ``doc``: orjson would write a NaN
    or an infinity as ``null``.  None also where orjson refuses a
    value: an int beyond 64 bits, a string holding a lone surrogate.
    """
    try:
        if all_finite(columns):
            return orjson.dumps(doc, option=orjson.OPT_SERIALIZE_NUMPY)
    except (TypeError, OverflowError):
        # TypeError: orjson's refusal, or a non-number in ``columns``;
        # OverflowError: an int too large to be a float.
        pass
    return None


def json_text(doc: Any, columns: Iterable[Sequence]) -> str:
    """Compact JSON text of ``doc`` that :func:`json.loads` reads back
    as ``doc``: the one writer of bulk text (results and traces).

    orjson writes it -- floats in their shortest round-trip form,
    non-ASCII as raw UTF-8, numpy scalars as the numbers they hold --
    unless that would change the answer (:func:`orjson_exact`), and
    then :mod:`json` does (``NaN`` / ``Infinity`` tokens, ``\\uXXXX``
    escapes).  ``columns`` hold every float in ``doc``, checked a
    column at a time (:func:`all_finite`).
    """
    data = orjson_exact(doc, columns)
    return _dumps(doc) if data is None else data.decode()


def events_json(events: Sequence[ObsEvent]) -> str:
    """Compact JSON array text of the trace's rows: one array of the
    eleven :class:`ObsEvent` fields in order per event, ``null`` for
    an unset field.

    The writer used where a trace leaves the process (the ``trace``
    member of a ``wait`` reply), through :func:`json_text`:
    ``json.loads(events_json(evs)) == [list(ev) for ev in evs]``, and
    the text is orjson's whenever every value is finite and encodable
    (``tests/obs/test_export.py`` holds both).  Like
    :func:`stream_digest` it reads an :class:`EventList`'s rows; an
    ``ObsEvent`` among them is copied to a plain tuple, which orjson
    writes (it refuses a named tuple).
    """
    rows = list(map(tuple, _rows(events)))
    columns = (
        list(map(_T, rows)),
        # ``None`` (unset) and 0.0 are left out alike: 0.0 is finite.
        list(filter(None, map(_VALUE, rows))),
        list(filter(None, map(_WALL, rows))),
    )
    return json_text(rows, columns)
