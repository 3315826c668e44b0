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
from ..obs.export import json_text
from ..obs.metrics import imbalance

__all__ = [
    "WorkerMetrics", "ChunkRecord", "LazyChunkList", "SimResult",
    "imbalance",
]


@dataclasses.dataclass
class WorkerMetrics(object):
    """Accumulated times and counters for one slave PE."""

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
    #: the ACP the worker attached to the request that won this chunk
    #: (None for non-distributed schemes and requeued assignments).
    acp: Optional[int] = None

    @property
    def size(self) -> int:
        return self.stop - self.start


#: The float fields of a chunk row, the ones :meth:`SimResult.to_json`
#: checks for non-finite values.
_ASSIGNED_AT, _COMPLETED_AT = operator.itemgetter(3), operator.itemgetter(4)


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
    content.

    Rows are also the transport form: a result crosses a process pool
    and lands in JSONL (:meth:`SimResult.to_dict`) as rows, whether or
    not anyone has read a record.  A row is a :class:`ChunkRecord`'s
    fields in order; trailing defaulted fields may be left off (the
    decentral fast path writes no ``acp``).
    """

    __slots__ = ("_rows", "_records")

    def __init__(self, rows: list[tuple]):
        self._rows = rows
        self._records: Optional[list[ChunkRecord]] = None

    def _materialize(self) -> list[ChunkRecord]:
        records = self._records
        if records is None:
            records = self._records = [
                ChunkRecord(*row) for row in self._rows
            ]
        return records

    def __len__(self) -> int:
        return len(self._rows)

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
        """The field rows (read-only)."""
        return self._rows

    def __reduce__(self):
        # Crosses a process pool as rows and stays lazy on the far
        # side -- consumers only rely on the sequence protocol.
        return (LazyChunkList, (self._rows,))


@dataclasses.dataclass
class SimResult(object):
    """Everything a simulated run produced."""

    scheme: str
    workers: list[WorkerMetrics]
    t_p: float
    #: one :class:`ChunkRecord` per chunk, in compute-start order:
    #: the row-backed :class:`LazyChunkList`, which is what
    #: :meth:`to_dict`, :meth:`to_json` and pickling write from.  (The
    #: auditors only iterate, so a test may hand them a result holding
    #: a plain list of edited records.)
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

    def to_dict(self, include_results: bool = False) -> dict:
        """JSON-safe dict; exact round trip via :meth:`from_dict`.

        Floats survive JSON exactly (both ``repr`` and orjson write a
        double's shortest round-trip form), so a persisted result is
        bit-identical after reload.  ``obs_events`` is intentionally
        excluded -- traces are bulky and have their own sinks
        (:mod:`repro.obs`); ``results`` arrays ride along only on
        request.
        """
        # Built from fields and rows directly: ``dataclasses.asdict``
        # deep-copies every int and float, which cost more per job
        # than the fast path's simulation.
        d = {
            "scheme": self.scheme,
            "t_p": self.t_p,
            "rederivations": self.rederivations,
            "events": self.events,
            "workers": [
                {name: getattr(w, name) for name in _WORKER_FIELDS}
                for w in self.workers
            ],
            "chunks": [
                {
                    "worker": r[0], "start": r[1], "stop": r[2],
                    "assigned_at": r[3], "completed_at": r[4],
                    "stage": r[5], "acp": r[6] if len(r) > 6 else None,
                }
                for r in self.chunks.rows()
            ],
        }
        if include_results and self.results is not None:
            d["results"] = self.results.tolist()
        return d

    def to_json(self, include_results: bool = False) -> str:
        """Compact JSON text of :meth:`to_dict`, the definition.

        The writer used where a result leaves the process -- a service
        reply, a JSONL line -- through :func:`repro.obs.export.json_text`:
        ``json.loads(r.to_json(x)) == r.to_dict(x)``, and the text is
        orjson's whenever every value is finite and encodable
        (``tests/simulation/test_result_transport.py`` holds both).
        """
        d = self.to_dict(include_results)
        rows = self.chunks.rows()
        numbers = itertools.chain(
            [self.t_p],
            [getattr(w, name) for w in self.workers
             for name in _WORKER_FLOATS],
            map(_ASSIGNED_AT, rows),
            map(_COMPLETED_AT, rows),
            d.get("results", ()),
        )
        return json_text(d, numbers)

    @classmethod
    def from_dict(cls, d: dict) -> "SimResult":
        """Rebuild a result persisted with :meth:`to_dict`."""
        results = d.get("results")
        return cls(
            scheme=d["scheme"],
            workers=[WorkerMetrics(**w) for w in d["workers"]],
            t_p=d["t_p"],
            chunks=LazyChunkList([
                (c["worker"], c["start"], c["stop"], c["assigned_at"],
                 c["completed_at"], c.get("stage", 0), c.get("acp"))
                for c in d["chunks"]
            ]),
            results=(
                None if results is None
                else np.asarray(results, dtype=float)
            ),
            rederivations=d.get("rederivations", 0),
            events=d.get("events", 0),
        )
