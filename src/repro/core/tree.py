"""Tree Scheduling (Kim & Purtilo 1996) -- the decentralized comparator.

**TreeS** differs structurally from every master-driven scheme in this
package: "the slaves do not contend for a central processor when making
requests because they have predefined partners" (paper Sec. 5).  The
moving parts:

* an **initial allocation** hands every worker a contiguous block up
  front -- even blocks in the paper's *simple* test, blocks proportional
  to virtual power in its *distributed* test;
* a worker that drains its block turns to its **predefined partners**
  in a fixed tree-derived order and *steals half* of a partner's
  remaining range;
* results "still have to be collected on a single central processor";
  the paper found end-of-run collection caused heavy idling and instead
  flushes "from time to time, at predefined time intervals".

This module holds the pure combinatorial pieces (allocation + partner
order); :mod:`repro.simulation.tree_engine` executes
them under the cluster model, and the flush interval lives there.

Partner order: workers are leaves of a binomial tree; worker ``i``'s
partner at level ``d`` is ``i XOR 2^d`` (its sibling subtree at that
height), skipping ids ``>= p``.  This gives every worker a deterministic
partner sequence that sweeps the whole cluster, exactly the "predefined
partners" property TreeS needs, and reduces to the classic binary-tree
pairing when ``p`` is a power of two.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from .base import SchemeError
from .static_ import weighted_block_sizes

__all__ = ["TreePartition", "partner_order"]


def partner_order(worker_id: int, workers: int) -> list[int]:
    """The fixed partner sequence for ``worker_id`` (binomial levels).

    Level ``d`` pairs ``i`` with ``i XOR 2^d``; ids outside ``[0, p)``
    are skipped.  Every other worker appears at most once.
    """
    if workers < 1:
        raise SchemeError(f"workers must be >= 1, got {workers}")
    if not 0 <= worker_id < workers:
        raise SchemeError(
            f"worker_id {worker_id} out of range for {workers} workers"
        )
    partners: list[int] = []
    d = 1
    while d < workers:
        partner = worker_id ^ d
        if partner < workers:
            partners.append(partner)
        d <<= 1
    # Sweep any ids unreachable by XOR levels (non-power-of-two p),
    # preserving determinism.
    for other in range(workers):
        if other != worker_id and other not in partners:
            partners.append(other)
    return partners


@dataclasses.dataclass(frozen=True)
class TreePartition(object):
    """Initial contiguous allocation for TreeS.

    ``weights=None`` gives the paper's simple-test behaviour ("the
    master assigns an even number of tasks to all slaves in the initial
    allocation stage"); explicit weights give its distributed-test
    behaviour ("according to their virtual power").
    """

    total: int
    workers: int
    weights: Optional[tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.total < 0:
            raise SchemeError(f"total must be >= 0, got {self.total}")
        if self.workers < 1:
            raise SchemeError(f"workers must be >= 1, got {self.workers}")
        if self.weights is not None and len(self.weights) != self.workers:
            raise SchemeError(
                f"need {self.workers} weights, got {len(self.weights)}"
            )

    @classmethod
    def even(cls, total: int, workers: int) -> "TreePartition":
        return cls(total=total, workers=workers)

    @classmethod
    def weighted(
        cls, total: int, weights: Sequence[float]
    ) -> "TreePartition":
        return cls(
            total=total, workers=len(weights), weights=tuple(weights)
        )

    def blocks(self) -> list[tuple[int, int]]:
        """Per-worker initial ``[start, stop)`` blocks (may be empty)."""
        weights = self.weights or tuple([1.0] * self.workers)
        sizes = weighted_block_sizes(self.total, weights)
        blocks: list[tuple[int, int]] = []
        cursor = 0
        for size in sizes:
            blocks.append((cursor, cursor + size))
            cursor += size
        return blocks
