"""Collectors: where emitted events go.

The contract every instrumented hot path relies on:

* Instrumented code stores ``self.obs = resolve(collector)`` and wraps
  each emission site in ``if self.obs: ...`` -- the
  :class:`NullCollector` is *falsy*, so the disabled path costs one
  truth test and never even constructs the event object.  That is the
  whole design of the ~zero-cost off switch (guarded by
  ``tests/obs/test_substrates.py``).
* A loop that emits per chunk asks :func:`sink` once for the callable
  it will feed, and feeds it *rows* (the eleven :class:`ObsEvent`
  fields as a plain tuple; an ``ObsEvent`` is one too).  For a
  :class:`BufferedCollector` whose ``emit`` nobody replaced that
  callable is the ``append`` of the row list behind its
  :class:`~repro.obs.events.EventList`; for any other collector it
  hands ``emit`` each row as an ``ObsEvent``, in order.
* Collectors never validate on emit (schema checks live in tests and
  importers) and never raise out of ``emit`` for flow-control reasons:
  an observability layer must not alter the run it observes.
* :class:`JsonlCollector` is process- and thread-safe: lines are
  buffered and flushed with a single ``O_APPEND`` write under a lock,
  so concurrent emitters (the chaos driver thread, the master loop)
  interleave whole lines, never fragments.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
from typing import Callable, Iterator, Optional, Union

from .events import EventList, ObsEvent

__all__ = [
    "Collector",
    "NullCollector",
    "BufferedCollector",
    "JsonlCollector",
    "NULL",
    "resolve",
    "sink",
    "capture",
]


class Collector(object):
    """Base collector: truthy, must implement :meth:`emit`."""

    def __bool__(self) -> bool:
        # Explicit: a subclass growing __len__ (BufferedCollector) must
        # not become falsy while empty -- emission sites gate on truth.
        return True

    def emit(self, event: ObsEvent) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        """Push buffered events to their destination (no-op default)."""

    def close(self) -> None:
        self.flush()

    def __enter__(self) -> "Collector":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NullCollector(Collector):
    """The disabled path: falsy, so emission sites skip entirely."""

    def __bool__(self) -> bool:
        return False

    def emit(self, event: ObsEvent) -> None:  # pragma: no cover - gated
        pass


#: The shared no-op collector every instrumented path defaults to.
NULL = NullCollector()


def resolve(collector: Optional[Collector]) -> Collector:
    """Normalize an optional collector argument to a real collector."""
    return NULL if collector is None else collector


class BufferedCollector(Collector):
    """In-memory event list; appends are GIL-atomic (thread-safe).

    ``events`` is an :class:`~repro.obs.events.EventList`: what the
    DES appends stays a row until something reads it.
    """

    def __init__(self) -> None:
        self.events = EventList()

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[ObsEvent]:
        return iter(self.events)

    def emit(self, event: ObsEvent) -> None:
        self.events.rows().append(event)

    def extend(self, events) -> None:
        """Fan-in: absorb events gathered elsewhere (shards, pools)."""
        self.events.rows().extend(events)

    def by_kind(self, kind: str) -> list[ObsEvent]:
        return [e for e in self.events if e.kind == kind]


class JsonlCollector(Collector):
    """Append-only JSONL sink; safe across threads and processes.

    Lines accumulate in memory and are written ``flush_every`` events
    at a time with one :func:`os.write` on an ``O_APPEND`` descriptor.
    POSIX guarantees O_APPEND writes are atomic with respect to each
    other, so multiple processes can share one trace file and the
    reader still sees whole lines.
    """

    def __init__(self, path: Union[str, os.PathLike],
                 flush_every: int = 256) -> None:
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.path = os.fspath(path)
        self.flush_every = int(flush_every)
        self._lines: list[str] = []
        self._lock = threading.Lock()
        # Create eagerly so an empty run still leaves a readable file.
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                     0o644)
        os.close(fd)

    def emit(self, event: ObsEvent) -> None:
        line = json.dumps(event.to_dict(), sort_keys=True)
        with self._lock:
            self._lines.append(line)
            if len(self._lines) >= self.flush_every:
                self._flush_locked()

    def flush(self) -> None:
        with self._lock:
            self._flush_locked()

    def _flush_locked(self) -> None:
        if not self._lines:
            return
        payload = ("\n".join(self._lines) + "\n").encode("utf-8")
        self._lines = []
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                     0o644)
        try:
            os.write(fd, payload)
        finally:
            os.close(fd)


def sink(collector: Collector) -> Callable[[tuple], None]:
    """The callable a hot loop feeds rows to for one whole run.

    Nothing is stored on the collector (it still pickles and copies),
    and an ``emit`` overridden in a subclass or set on the instance is
    what gets called -- with an :class:`ObsEvent`, never a bare row.
    """
    emit = collector.emit
    if (
        isinstance(collector, BufferedCollector)
        and getattr(emit, "__func__", None) is BufferedCollector.emit
        and emit.__self__ is collector
    ):
        return collector.events.rows().append
    make = ObsEvent._make

    def emit_event(row: tuple) -> None:
        emit(make(row))

    return emit_event


@contextlib.contextmanager
def capture() -> Iterator[BufferedCollector]:
    """Capture events in memory::

        from repro.obs import capture
        with capture() as trace:
            simulate("TSS", wl, cluster, collector=trace)
        print(len(trace.events))
    """
    collector = BufferedCollector()
    yield collector
