"""Per-PE time accounting and run-level results.

The paper tabulates, per slave, ``T_com / T_wait / T_comp`` (Tables 2
and 3) and the total parallel time ``T_p`` "measured on the Master PE".
The simulator accounts the same three buckets:

* ``t_com``  -- time the PE's messages occupy its link (request +
  piggy-backed results out, reply in, result flushes for TreeS);
* ``t_wait`` -- time between finishing a transmission and receiving the
  next assignment that is *not* link time: master queueing + service,
  plus terminal idling before the run ends;
* ``t_comp`` -- time spent executing loop iterations (wall time on the
  PE, i.e. inflated by external load in nondedicated mode).

``T_p`` is the virtual time at which the last result lands on the
master.
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
from typing import Optional

import numpy as np

from ..obs.events import EventList
from ..obs.export import (BULK_DOMAIN, ROW_DOMAIN, all_finite, exact_bytes,
                          json_bytes, json_loads)
from ..obs.metrics import imbalance

__all__ = ["WorkerMetrics", "ChunkRecord", "LazyChunkList", "SimResult"]


@dataclasses.dataclass
class WorkerMetrics(object):
    """Accumulated times and counters for one slave PE.

    The real substrates fill the same cells from their workers' shards
    (:func:`repro.runtime.chassis.worker_books`): ``t_wait``,
    ``t_comp``, ``chunks`` and ``iterations``.  ``t_com`` and
    ``finished_at`` stay ``0.0`` there: a pipe or a counter file has no
    separable link occupancy, so serialization rides in ``t_wait``, and
    a real run reports ``elapsed`` on its result.
    """

    name: str
    t_com: float = 0.0
    t_wait: float = 0.0
    t_comp: float = 0.0
    chunks: int = 0
    iterations: int = 0
    finished_at: float = 0.0

    @property
    def busy(self) -> float:
        """Total accounted time (com + wait + comp)."""
        return self.t_com + self.t_wait + self.t_comp

    def row(self) -> str:
        """The paper's cell format: ``T_com/T_wait/T_comp``."""
        return f"{self.t_com:.1f}/{self.t_wait:.1f}/{self.t_comp:.1f}"


_WORKER_FIELDS = tuple(f.name for f in dataclasses.fields(WorkerMetrics))
_WORKER_FLOATS = tuple(
    f.name for f in dataclasses.fields(WorkerMetrics) if f.type == "float"
)
#: A worker's float fields as one tuple.
_worker_floats = operator.attrgetter(*_WORKER_FLOATS)


@dataclasses.dataclass(frozen=True, slots=True)
class ChunkRecord(object):
    """One scheduling decision, for traces and post-hoc analysis.

    A read-only view of one chunk row (see :class:`LazyChunkList`):
    frozen, so the rows a result was built from stay its content and
    everything that leaves the process is written from them;
    ``dataclasses.replace`` makes an edited copy.
    """

    worker: int
    start: int
    stop: int
    assigned_at: float
    completed_at: float
    stage: int = 0
    #: the ACP the worker attached to the request that won this chunk:
    #: None for non-distributed schemes and for a requeued span
    #: released to a parked worker (which sent no request for it); a
    #: requeued span served on request keeps the requester's ACP.
    acp: Optional[int] = None

    @property
    def size(self) -> int:
        return self.stop - self.start


#: The float fields of a chunk row: the columns checked for NaN and
#: infinities (:meth:`SimResult.floats`, :meth:`LazyChunkList.__reduce__`).
_ASSIGNED_AT, _COMPLETED_AT = operator.itemgetter(3), operator.itemgetter(4)


def _times(rows: list[tuple]) -> list[list]:
    """The rows' two time columns."""
    return [list(map(_ASSIGNED_AT, rows)), list(map(_COMPLETED_AT, rows))]


class LazyChunkList(object):
    """Sequence of :class:`ChunkRecord` materialized on first access.

    Every engine -- the DES chassis and both fast paths -- writes one
    field row per chunk, and record construction would dominate the
    per-chunk cost of the lean ones.  At million-run sweep scale most
    results only read ``t_p`` and the worker metrics, never the
    per-chunk trace -- so ``SimResult.chunks`` holds the raw rows and
    this wrapper builds the real :class:`ChunkRecord` objects only
    when someone actually touches them.  Materialization is exact
    (rows hold the final field values, in final order) and happens at
    most once; the records are frozen, so the rows stay the list's
    content.  A row is a tuple of a :class:`ChunkRecord`'s fields in
    order; trailing defaulted fields may be left off (the decentral
    fast path writes no ``acp``).

    The transport form is the rows' JSON text: a result crosses a
    process pool as the exact bytes a persisted sweep line holds for
    its chunks (:meth:`SimResult.row_json`), encoded once, by the pool
    worker, with :mod:`repro.obs.export`'s codec under its type-exact
    ``ROW_DOMAIN``.  The far side keeps the text undecoded
    (:meth:`text`): ``len`` needs no decode, and :meth:`rows` decodes
    once, on first read, into the same tuples.  Where the codec's
    bytes would not be exact (a non-finite time, a numpy scalar, an int
    beyond 64 bits) the rows themselves are pickled, as before.
    """

    __slots__ = ("_rows", "_records", "_text", "_length")

    def __init__(self, rows: list[tuple]):
        self._rows: Optional[list[tuple]] = rows
        self._records: Optional[list[ChunkRecord]] = None
        #: the rows' JSON text, when they arrived as text
        self._text: Optional[bytes] = None
        self._length = 0

    def _materialize(self) -> list[ChunkRecord]:
        records = self._records
        if records is None:
            records = self._records = [
                ChunkRecord(*row) for row in self.rows()
            ]
        return records

    def __len__(self) -> int:
        rows = self._rows
        return self._length if rows is None else len(rows)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self):
        return iter(self._materialize())

    def __getitem__(self, index):
        return self._materialize()[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, LazyChunkList):
            other = other._materialize()
        return self._materialize() == other

    def __repr__(self) -> str:
        return repr(self._materialize())

    def rows(self) -> list[tuple]:
        """The field rows (read-only), decoded from the text once."""
        rows = self._rows
        if rows is None:
            assert self._text is not None
            rows = self._rows = list(map(tuple, json_loads(self._text)))
        return rows

    def text(self) -> Optional[bytes]:
        """The rows' JSON text when they arrived as text, else None."""
        return self._text

    def __reduce__(self):
        # Crosses a process pool as text where that is exact, and stays
        # undecoded on the far side -- consumers only rely on the
        # sequence protocol.
        text = self._text
        if text is None:
            text = exact_bytes(self._rows, ROW_DOMAIN,
                               lambda rows: all_finite(_times(rows)))
            if text is None:
                return (LazyChunkList, (self._rows,))
        return (_chunks_from_text, (text, len(self)))


def _chunks_from_text(text: bytes, length: int) -> LazyChunkList:
    """A :class:`LazyChunkList` of ``length`` rows held as ``text``: the
    far side of its pickle."""
    chunks = LazyChunkList([])
    chunks._rows = None
    chunks._text = text
    chunks._length = length
    return chunks


def _chunk_row(chunk) -> tuple:
    """One persisted chunk, a row or a dict, as a row."""
    if isinstance(chunk, dict):
        return (chunk["worker"], chunk["start"], chunk["stop"],
                chunk["assigned_at"], chunk["completed_at"],
                chunk.get("stage", 0), chunk.get("acp"))
    if not isinstance(chunk, (list, tuple)) or not 6 <= len(chunk) <= 7:
        raise ValueError(
            f"a chunk is a dict or a row of 6 or 7 fields, not {chunk!r}")
    return tuple(chunk)


@dataclasses.dataclass
class SimResult(object):
    """Everything a simulated run produced."""

    scheme: str
    workers: list[WorkerMetrics]
    t_p: float
    #: one :class:`ChunkRecord` per chunk, in compute-start order:
    #: the row-backed :class:`LazyChunkList`, which is what
    #: :meth:`to_dict`, :meth:`row_dict`, :meth:`to_json_bytes` and pickling
    #: write from.  (The auditors only iterate, so a test may hand them
    #: a result holding a plain list of edited records.)
    chunks: LazyChunkList
    results: Optional[np.ndarray] = None
    rederivations: int = 0
    events: int = 0
    #: unified observability trace when the run was asked to collect
    #: one: the collector's :class:`repro.obs.EventList`, which reads
    #: as a list of :class:`repro.obs.ObsEvent`.  ``events`` above
    #: predates the trace layer and counts *simulator queue* events,
    #: not these.
    obs_events: Optional[EventList] = None
    #: how many events the DES's trace of this run holds, set by the
    #: fast path, which emits none (None on a DES run: an observed one
    #: has ``len(obs_events)``).  Not part of the result's content:
    #: left out of comparison and of :meth:`to_dict`.
    trace_length: Optional[int] = dataclasses.field(
        default=None, compare=False, repr=False
    )

    @property
    def total_iterations(self) -> int:
        return sum(w.iterations for w in self.workers)

    @property
    def total_chunks(self) -> int:
        return sum(w.chunks for w in self.workers)

    def comp_times(self) -> list[float]:
        return [w.t_comp for w in self.workers]

    def comp_imbalance(self) -> float:
        """Imbalance of computation time across PEs (see :func:`imbalance`)."""
        return imbalance(self.comp_times())

    def summary(self) -> str:
        lines = [f"{self.scheme}: T_p = {self.t_p:.2f}s, "
                 f"{self.total_chunks} chunks, "
                 f"imbalance = {self.comp_imbalance():.3f}"]
        for i, w in enumerate(self.workers, start=1):
            lines.append(f"  PE{i} ({w.name}): {w.row()}  "
                         f"[{w.chunks} chunks, {w.iterations} iters]")
        return "\n".join(lines)

    def _fields(self) -> dict:
        """The dict forms' members before ``chunks``, in their order."""
        return {
            "scheme": self.scheme,
            "t_p": self.t_p,
            "rederivations": self.rederivations,
            "events": self.events,
            "workers": [
                {name: getattr(w, name) for name in _WORKER_FIELDS}
                for w in self.workers
            ],
        }

    def to_dict(self, include_results: bool = False) -> dict:
        """JSON-safe dict; exact round trip via :meth:`from_dict`.

        Floats survive JSON exactly (``repr`` and the codec alike write a
        double's shortest round-trip form), so a persisted result is
        bit-identical after reload.  ``obs_events`` is intentionally
        excluded -- traces are bulky and have their own sinks
        (:mod:`repro.obs`); ``results`` arrays ride along only on
        request.
        """
        # Built from fields and rows directly: ``dataclasses.asdict``
        # deep-copies every int and float, which cost more per job
        # than the fast path's simulation.
        d = self._fields()
        d["chunks"] = [
            {
                "worker": r[0], "start": r[1], "stop": r[2],
                "assigned_at": r[3], "completed_at": r[4],
                "stage": r[5], "acp": r[6] if len(r) > 6 else None,
            }
            for r in self.chunks.rows()
        ]
        if include_results and self.results is not None:
            d["results"] = self.results.tolist()
        return d

    def row_dict(self) -> dict:
        """:meth:`to_dict` with each chunk left as its row.

        The form a persisted sweep line holds (``repro.batch``): a
        chunk is ``[worker, start, stop, assigned_at, completed_at,
        stage(, acp)]``, the :class:`ChunkRecord` fields in order, so
        no per-chunk dict is built and the text is about half as long.
        :meth:`from_dict` reads either form.  The rows are the
        result's own, not copies: write the dict out, do not keep it.
        """
        d = self._fields()
        d["chunks"] = self.chunks.rows()
        return d

    def _head_floats(self) -> list:
        """Every float before ``chunks``: ``t_p`` and the workers'."""
        return [self.t_p,
                *itertools.chain.from_iterable(
                    map(_worker_floats, self.workers))]

    def floats(self, include_results: bool = False) -> list:
        """Every float of :meth:`to_dict` (or :meth:`row_dict`), in
        columns: what :func:`repro.obs.export.json_bytes` checks."""
        columns = [self._head_floats(), *_times(self.chunks.rows())]
        if include_results and self.results is not None:
            columns.append(self.results.tolist())
        return columns

    def row_json(self, head: dict) -> bytes:
        """JSON bytes of ``{**head, "result": self.row_dict()}``: one
        persisted sweep line, as :func:`~repro.obs.export.json_bytes`
        writes it.

        When the chunks arrived as text (:class:`LazyChunkList`), the
        codec writes the head and the result's fields, and the text
        follows as ``chunks``, the last member: the same bytes, with no
        row decoded, re-encoded or re-checked.  That holds whenever the
        fields' bytes are exact
        (:func:`~repro.obs.export.exact_bytes`); otherwise, and for
        rows that never crossed a pickle, one ``json_bytes`` call
        writes the whole line.  ``head`` holds no float.
        """
        text = self.chunks.text()
        if text is not None:
            data = exact_bytes({**head, "result": self._fields()},
                               BULK_DOMAIN,
                               lambda _: all_finite([self._head_floats()]))
            if data is not None:
                # ``data`` ends in the result's ``}`` and the line's.
                return b"%s,\"chunks\":%s}}" % (data[:-2], text)
        return json_bytes({**head, "result": self.row_dict()}, self.floats())

    def to_json_bytes(self, include_results: bool = False) -> bytes:
        """Compact JSON of :meth:`to_dict`, as UTF-8 bytes.

        The writer used where a result leaves the process as a dict --
        a service reply -- through :func:`repro.obs.export.json_bytes`:
        ``json.loads(r.to_json_bytes(x)) == r.to_dict(x)``, and the
        bytes are the codec's fast ones whenever every value is finite
        and encodable (``tests/simulation/test_result_transport.py``
        holds both).
        """
        return json_bytes(self.to_dict(include_results),
                          self.floats(include_results))

    @classmethod
    def from_dict(cls, d: dict) -> "SimResult":
        """Rebuild a result persisted with :meth:`to_dict` or
        :meth:`row_dict`: a chunk is a dict or a row of 6 or 7 fields.

        Raises ``KeyError``, ``TypeError`` or ``ValueError`` on a dict
        that is neither (a row of another width among them), so a
        reader can refuse a bad record before anything reads a chunk.
        """
        results = d.get("results")
        return cls(
            scheme=d["scheme"],
            workers=[WorkerMetrics(**w) for w in d["workers"]],
            t_p=d["t_p"],
            chunks=LazyChunkList(list(map(_chunk_row, d["chunks"]))),
            results=(
                None if results is None
                else np.asarray(results, dtype=float)
            ),
            rederivations=d.get("rederivations", 0),
            events=d.get("events", 0),
        )
