"""Chunk-trace analytics: regenerate and dissect scheduling decisions.

The paper's Table 1 ("Sample chunk sizes for I = 1000 and p = 4") is a
pure function of the schemes, no cluster needed;
:func:`chunk_sequence` drains a scheme analytically and
:func:`table1_rows` formats the table's rows, including the nominal TSS
row the paper prints (which over-covers ``I`` -- see EXPERIMENTS.md).

Also here: summary statistics used by the ablation benchmarks.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from ..core import (
    Scheduler,
    drain,
    make,
    nominal_tss_chunks,
    tfss_stage_chunks,
)

__all__ = [
    "chunk_sequence",
    "ChunkStats",
    "chunk_stats",
    "table1_rows",
]


def chunk_sequence(
    scheme: str | Scheduler, total: int, workers: int, **kwargs
) -> list[int]:
    """Chunk sizes from a synchronous round-robin drain of ``scheme``."""
    scheduler = (
        make(scheme, total, workers, **kwargs)
        if isinstance(scheme, str)
        else scheme
    )
    return [c.size for c in drain(scheduler)]


@dataclasses.dataclass(frozen=True)
class ChunkStats(object):
    """Summary of a chunk-size sequence."""

    count: int
    total: int
    largest: int
    smallest: int
    mean: float

    @property
    def messages(self) -> int:
        """Master round-trips implied (one per chunk, plus terminations)."""
        return self.count


def chunk_stats(sizes: Sequence[int]) -> ChunkStats:
    """Compute :class:`ChunkStats` for a sequence of chunk sizes."""
    sizes = list(sizes)
    if not sizes:
        return ChunkStats(count=0, total=0, largest=0, smallest=0, mean=0.0)
    return ChunkStats(
        count=len(sizes),
        total=sum(sizes),
        largest=max(sizes),
        smallest=min(sizes),
        mean=sum(sizes) / len(sizes),
    )


def table1_rows(total: int = 1000, workers: int = 4) -> dict[str, list[int]]:
    """The paper's Table 1, scheme -> chunk-size row.

    Matches the paper's presentation conventions: the TSS and TFSS rows
    are the *nominal* formula sequences (both over-cover ``total`` --
    the executable schedulers clip; see EXPERIMENTS.md); FSS/FISS rows
    are executable traces which already conserve ``total``; CSS is
    omitted (its printed row is the symbolic ``k k k ...``); SS is
    truncated in print but full here.
    """
    tfss_nominal = [
        size
        for size in tfss_stage_chunks(total, workers)
        for _ in range(workers)
    ]
    return {
        "S": chunk_sequence("S", total, workers),
        "SS": chunk_sequence("SS", total, workers),
        "GSS": chunk_sequence("GSS", total, workers),
        "TSS": nominal_tss_chunks(total, workers),
        "FSS": chunk_sequence("FSS", total, workers),
        "FISS": chunk_sequence("FISS", total, workers),
        "TFSS": tfss_nominal,
    }
