"""Pure chunk kernel: the lockstep driver and ladder evaluation.

One formula, three drivers
--------------------------

Each simple scheme states its chunk formula **once**, as the pure
method ``Scheduler._nominal(rem, step, wid, k) -> (size, stage)`` next
to its paper docstring (:mod:`repro.core.guided`,
:mod:`repro.core.trapezoid`, ...).  The formula owns no loop state;
three generic drivers supply it:

* :meth:`repro.core.base.Scheduler.next_chunk` -- the stateful master
  (cursor, step, per-worker request counts), one request at a time, in
  whatever order requests arrive;
* the per-request stepper in :mod:`repro.simulation.fastpath`, which
  calls the same bound method with its own locals;
* :class:`ChunkCalculator` here -- the **lockstep** reading: chunk
  ordinal ``m`` is worker ``m % p``'s request number ``m // p``, so the
  whole ladder is a table computed once, with no master and no
  per-request state.

The lockstep reading is Eleliemy & Ciorba's *Distributed Chunk
Calculation Approach* (arXiv:2101.07050): a chunk size is a pure
function of the scheduling position, so a worker that atomically
fetches-and-increments a shared counter can derive its own interval
locally.  Its consumers:

* the **decentral simulator and runtime** map fetched ordinals to
  intervals (``calc.interval(i)`` after ``i = counter.fetch_add(1)``);
* the decentral fast path and the ledger read whole ladders as arrays
  (:func:`evaluate_ladder`, :class:`ChunkLadder`: the calculator's own
  table, handed over as int64 arrays).

The kernel's oracle is :func:`repro.verify.replay_cut_points`, a
request-by-request :meth:`~repro.core.base.Scheduler.stepper` replay
that never reads the table.

Which schemes decentralize
--------------------------

A scheme qualifies (``Scheduler.decentral``) when its chunk sizes are
independent of request *order* and of worker identity: SS, CSS, GSS,
TSS directly (size is a function of the remaining count or the step),
and the staged schemes FSS, FISS, TFSS through the stage-span
argument: under the per-worker stage ladder, ordinal ``m`` is served
``ladder[m // p]`` -- a pure function of the ordinal.  WF needs the
requester's static weight, S/BC are dealt by requester, and the
distributed D* family consults runtime ACP reports; none has a
substrate-independent lockstep form, and :func:`make_calculator`
refuses them with an explanation.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_right
from typing import Any, Optional

import numpy as np

from . import registry
from .base import Scheduler, SchemeError

__all__ = [
    "ChunkCalculator",
    "CALCULATORS",
    "DECENTRAL_SCHEMES",
    "make_calculator",
    "chunk_size",
    "ChunkLadder",
    "evaluate_ladder",
]


class ChunkCalculator(object):
    """Lockstep driver: a scheme's formula tabulated over ordinals.

    Holds a pristine scheme object (``scheduler``; its parameters are
    readable there, its loop state is never touched) and reads
    ``scheduler._nominal`` with ``wid = m % p``, ``k = m // p`` for
    ordinal ``m``.  Instances carry the scheme's parameters and the
    table, so they pickle cheaply into decentral worker processes, and
    every method is side-effect free -- two workers evaluating the
    same ordinal always agree, which is what makes the shared counter
    the *only* coordination point.
    """

    def __init__(self, scheduler: Scheduler, scheme: str) -> None:
        self.scheduler = scheduler
        #: canonical registry key (e.g. ``"TSS"``).
        self.scheme = scheme
        self.total = scheduler.total
        self.workers = scheduler.workers
        #: cut points ``[start_0, ..., start_{n-1}, total]`` and the
        #: stage of each chunk, built on first use.
        self._table: Optional[tuple[list[int], list[int]]] = None

    def _size_at(self, rem: int, ordinal: int) -> tuple[int, int]:
        """Clipped ``(size, stage)`` of chunk ``ordinal`` given ``rem``.

        The calculator's one copy of the driver rule: floor the
        nominal size at 1, cap it at the remaining count.
        """
        size, stage = self.scheduler._nominal(
            rem, ordinal, ordinal % self.workers, ordinal // self.workers
        )
        size = int(size)
        if size < 1:
            size = 1
        return (size if size < rem else rem), stage

    def _tabulate(self) -> tuple[list[int], list[int]]:
        if self._table is None:
            total = self.total
            const = self.scheduler.constant
            if const is not None:
                bounds = list(range(0, total, const))
                stages = [0] * len(bounds)
            else:
                bounds, stages = [], []
                at = 0
                while at < total:
                    size, stage = self._size_at(total - at, len(bounds))
                    bounds.append(at)
                    stages.append(stage)
                    at += size
            bounds.append(total)
            self._table = (bounds, stages)
        return self._table

    # -- the pure function -------------------------------------------------

    def chunk(self, scheduled: int) -> int:
        """Chunk size at boundary ``scheduled``; 0 once the loop is done.

        Off a boundary, the formula is read at the ordinal whose chunk
        contains ``scheduled``, over the ``total - scheduled``
        iterations that remain.
        """
        if scheduled < 0:
            raise SchemeError(f"scheduled must be >= 0, got {scheduled}")
        if scheduled >= self.total:
            return 0
        ordinal = bisect_right(self._tabulate()[0], scheduled) - 1
        return self._size_at(self.total - scheduled, ordinal)[0]

    # -- ordinal geometry (what a fetched counter value buys) --------------

    @property
    def n_chunks(self) -> int:
        """Number of chunks a full run produces."""
        return len(self._tabulate()[1])

    def prefix(self, index: int) -> int:
        """Iterations assigned before chunk ordinal ``index``."""
        bounds = self._tabulate()[0]
        if not 0 <= index < len(bounds):
            raise SchemeError(
                f"chunk index {index} out of range [0, {len(bounds) - 1}]"
            )
        return bounds[index]

    def interval(self, index: int) -> tuple[int, int]:
        """Half-open iteration interval of chunk ordinal ``index``."""
        bounds = self._tabulate()[0]
        if not 0 <= index < len(bounds) - 1:
            raise SchemeError(
                f"chunk index {index} beyond the loop (n_chunks="
                f"{len(bounds) - 1})"
            )
        return bounds[index], bounds[index + 1]

    def sizes(self) -> list[int]:
        """Every chunk size in ordinal order (sums to ``total``)."""
        bounds = self._tabulate()[0]
        return [b - a for a, b in zip(bounds, bounds[1:])]

    def stage_of(self, index: int) -> int:
        """Stage recorded on chunk ``index`` (0 for unstaged schemes)."""
        stages = self._tabulate()[1]
        if not 0 <= index < len(stages):
            raise SchemeError(f"chunk index {index} out of range")
        return stages[index]

    def boundaries(self) -> frozenset[int]:
        """All cut points, :func:`repro.verify.replay_cut_points` style."""
        bounds, stages = self._tabulate()
        return frozenset(bounds) if stages else frozenset()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ChunkCalculator {self.scheme} total={self.total} "
            f"workers={self.workers}>"
        )


#: scheme name -> scheme class, for the schemes with a lockstep form
#: (see the module docstring for why the others are excluded).
CALCULATORS: dict[str, type[Scheduler]] = {
    name: cls for name, cls in registry.SCHEMES.items() if cls.decentral
}

#: The same names, in registry order.
DECENTRAL_SCHEMES: tuple[str, ...] = tuple(CALCULATORS)


def make_calculator(
    name: str, total: int, workers: int, **kwargs: Any
) -> ChunkCalculator:
    """Build the lockstep calculator for scheme ``name``.

    Accepts the same spellings and keyword parameters as
    :func:`repro.core.make` (case folding, ``"CSS(32)"`` inline
    parameters).  Schemes without a lockstep form --
    worker-identity-dependent (S, BC, WF) or ACP-driven (DTSS, DFSS,
    DFISS, DTFSS) -- raise :class:`SchemeError`.
    """
    key, inline = registry.parse(name)
    cls = registry.SCHEMES.get(key)
    if cls is None or not cls.decentral:
        raise SchemeError(
            f"scheme {key!r} has no decentral form (chunk sizes depend "
            f"on worker identity or runtime ACP, so they cannot be a "
            f"pure function of the scheduled count); "
            f"decentralizable: {', '.join(DECENTRAL_SCHEMES)}"
        )
    for kw, value in inline.items():
        kwargs.setdefault(kw, value)
    return ChunkCalculator(cls(total, workers, **kwargs), key)


def chunk_size(
    scheme: str, scheduled: int, total: int, workers: int, **kwargs
) -> int:
    """One-shot pure form: ``chunk(scheduled, total, p)`` for ``scheme``."""
    return make_calculator(scheme, total, workers, **kwargs).chunk(scheduled)


# -- array-level ladder evaluation -----------------------------------------


@dataclasses.dataclass(frozen=True)
class ChunkLadder(object):
    """A scheme's entire chunk ladder, materialized as arrays.

    ``sizes[i]``, ``starts[i]``, ``stops[i]`` describe chunk ordinal
    ``i``; ``stages[i]`` is the stage the staged schemes would record
    (0 for unstaged).  All arrays are int64 and read-only; ``sizes``
    sums to ``total`` and the intervals tile ``[0, total)`` exactly.
    """

    scheme: str
    total: int
    workers: int
    sizes: np.ndarray
    starts: np.ndarray
    stops: np.ndarray
    stages: np.ndarray

    @property
    def n_chunks(self) -> int:
        return int(self.sizes.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ChunkLadder {self.scheme} total={self.total} "
            f"workers={self.workers} n_chunks={self.n_chunks}>"
        )


def evaluate_ladder(
    calc: ChunkCalculator | str,
    total: Optional[int] = None,
    workers: Optional[int] = None,
    **kwargs: Any,
) -> ChunkLadder:
    """Materialize the full chunk ladder of ``calc`` as arrays.

    ``calc`` is a ready :class:`ChunkCalculator` or a scheme name (then
    ``total`` and ``workers`` are required and forwarded to
    :func:`make_calculator`).  The arrays are the calculator's own
    table, so the result is exactly the step-by-step ladder.
    """
    if isinstance(calc, str):
        if total is None or workers is None:
            raise SchemeError(
                "evaluate_ladder(name, ...) needs total and workers"
            )
        calc = make_calculator(calc, total, workers, **kwargs)
    table = calc._tabulate()
    bounds = np.asarray(table[0], dtype=np.int64)
    stages = np.asarray(table[1], dtype=np.int64)
    starts, stops = bounds[:-1], bounds[1:]
    sizes = stops - starts
    for arr in (bounds, sizes, stages):
        arr.setflags(write=False)
    return ChunkLadder(
        scheme=calc.scheme,
        total=calc.total,
        workers=calc.workers,
        sizes=sizes,
        starts=starts,
        stops=stops,
        stages=stages,
    )
