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
  callable is :meth:`EventList.sink <repro.obs.events.EventList.sink>`,
  the ``extend`` of the trace's flat store; for any other collector
  it hands ``emit`` each row as an ``ObsEvent``, in order.
* Collectors never validate on emit (schema checks live in tests and
  importers) and never raise out of ``emit`` for flow-control reasons:
  an observability layer must not alter the run it observes.
"""

from __future__ import annotations

import contextlib
from itertools import chain
from typing import Callable, Iterable, Iterator, Optional

from .events import EventList, ObsEvent

__all__ = [
    "Collector",
    "NullCollector",
    "BufferedCollector",
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

    ``events`` is an :class:`~repro.obs.events.EventList`, and
    ``emit`` / ``extend`` write its flat store through its one writer,
    :meth:`~repro.obs.events.EventList.sink`: an event is kept as its
    eleven fields, never as an object.
    """

    def __init__(self) -> None:
        self.events = EventList()

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[ObsEvent]:
        return iter(self.events)

    def emit(self, event: ObsEvent) -> None:
        self.events.sink()(event)

    def extend(self, events: Iterable[ObsEvent]) -> None:
        """Fan-in: absorb events gathered elsewhere (shards, pools)."""
        self.events.sink()(chain.from_iterable(events))

    def by_kind(self, kind: str) -> list[ObsEvent]:
        return [e for e in self.events if e.kind == kind]


def sink(collector: Collector) -> Callable[[tuple], None]:
    """The callable a hot loop feeds rows to for one whole run.

    For a plain :class:`BufferedCollector` it is the trace's own
    writer, :meth:`EventList.sink <repro.obs.events.EventList.sink>`:
    each row's fields land in the flat store and the row is freed.
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
        return collector.events.sink()
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
