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
import os
from typing import Iterable, Sequence, Union

from .events import ObsEvent

__all__ = [
    "to_jsonl",
    "write_jsonl",
    "read_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "canonical_stream",
    "stream_digest",
    "events_json",
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


def stream_digest(events: Iterable[ObsEvent]) -> str:
    """sha256 over the canonical stream's JSONL serialization.

    Defined as the digest of ``"\\n".join(json.dumps(row,
    sort_keys=True) for row in canonical_stream(events))``; computed in
    one pass over ``(start, stop)`` pairs, writing each line directly
    (every job pays this, and a row dict plus a ``json.dumps`` call per
    event was a tenth of an observed run).  ``tests/obs/test_export.py``
    holds the two byte-identical.
    """
    pairs = sorted(
        (ev.start, ev.stop) for ev in events
        if ev.kind == "result" and ev.start is not None
    )
    payload = "\n".join(
        '{"kind": "result", "start": %d, "stop": %d}' % pair
        for pair in pairs
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


_float_repr = float.__repr__
_dumps = json.JSONEncoder(separators=(",", ":")).encode


def events_json(events: Sequence[ObsEvent]) -> str:
    """Compact JSON array text of ``[ev.to_dict() for ev in events]``.

    :meth:`ObsEvent.to_dict` is the definition and this is the writer
    used where a trace leaves the process: the same members in the
    same order, formatted straight from the tuple (a 4000-event trace
    cost more to turn into dicts and encode than the run that made
    it).  Integer fields are written with ``%d`` and times with
    ``float.__repr__``; a stream holding a time those cannot write as
    ``json`` would (an int where a float belongs, ``inf``, ``nan``) is
    encoded from the definition instead.
    ``tests/obs/test_export.py`` holds the two byte-identical.
    """
    try:
        return _events_text(events)
    except (TypeError, ValueError):
        return _dumps([ev.to_dict() for ev in events])


def _events_text(events: Sequence[ObsEvent]) -> str:
    """The fast arm of :func:`events_json`: ``TypeError`` from
    ``float.__repr__`` of a non-float, ``ValueError`` at a non-finite
    time (``x - x`` is ``nan`` for ``inf`` and ``nan``)."""
    heads: dict[tuple, str] = {}
    out = []
    for (kind, source, t, worker, start, stop, stage, acp, value,
         detail, wall) in events:
        head = heads.get((kind, source))
        if head is None:
            head = heads[kind, source] = '{"kind":%s,"source":%s,"t":' % (
                _dumps(kind), _dumps(source))
        if t - t != 0.0:
            raise ValueError(t)
        text = head + _float_repr(t)
        if worker != -1:
            text += ',"worker":%d' % worker
        if start is not None:
            text += ',"start":%d' % start
        if stop is not None:
            text += ',"stop":%d' % stop
        if stage is not None:
            text += ',"stage":%d' % stage
        if acp is not None:
            text += ',"acp":%d' % acp
        if value is not None:
            if value - value != 0.0:
                raise ValueError(value)
            text += ',"value":' + _float_repr(value)
        if wall is not None:
            if wall - wall != 0.0:
                raise ValueError(wall)
            text += ',"wall":' + _float_repr(wall)
        if detail:
            text += ',"detail":' + _dumps(detail)
        out.append(text)
    return "[" + "},".join(out) + "}]" if out else "[]"
