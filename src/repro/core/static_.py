"""Static scheduling baselines (paper Table 1 row ``S``).

Static scheduling divides the loop once, before execution, with no
runtime requests beyond the initial allocation.  It is the zero-overhead
/ zero-adaptivity extreme against which the self-scheduling schemes are
compared: for ``I = 1000`` and ``p = 4`` it emits ``250 250 250 250``.

Two variants are provided:

* :class:`StaticScheduler` -- contiguous blocks, one per worker (the
  paper's ``S``).  Optionally *weighted* by virtual power, which is the
  initial allocation rule the paper uses for TreeS in the distributed
  tests ("the master assigns a number of tasks to the slaves according
  to their virtual power").
* :class:`BlockCyclicScheduler` -- fixed-size blocks dealt round-robin;
  equivalent to CSS(k) in assignment sizes but enumerable up front.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .base import Scheduler, SchemeError

__all__ = ["StaticScheduler", "BlockCyclicScheduler", "weighted_block_sizes"]


def weighted_block_sizes(total: int, weights: Sequence[float]) -> list[int]:
    """Split ``total`` into ``len(weights)`` blocks proportional to weights.

    Uses largest-remainder apportionment so the blocks sum exactly to
    ``total`` and each block differs from the exact proportional share by
    less than 1.  Weights must be positive.
    """
    if total < 0:
        raise SchemeError(f"total must be >= 0, got {total}")
    if not weights:
        raise SchemeError("weights must not be empty")
    if any(w <= 0 for w in weights):
        raise SchemeError(f"weights must be positive, got {list(weights)}")
    wsum = float(sum(weights))
    exact = [total * w / wsum for w in weights]
    sizes = [int(e) for e in exact]
    shortfall = total - sum(sizes)
    # Hand the leftover units to the largest fractional remainders.
    order = sorted(
        range(len(weights)), key=lambda j: exact[j] - sizes[j], reverse=True
    )
    for j in order[:shortfall]:
        sizes[j] += 1
    return sizes


class StaticScheduler(Scheduler):
    """One contiguous block per worker, sized equally or by weight.

    The first ``p`` requests receive the blocks in worker-id order
    (request order does not matter: block ``j`` goes to the ``j``-th
    *distinct* requester); subsequent requests get nothing.
    """

    name = "S"
    order_invariant = True

    def __init__(
        self,
        total: int,
        workers: int,
        weights: Optional[Sequence[float]] = None,
    ) -> None:
        super().__init__(total, workers)
        if weights is None:
            weights = [1.0] * workers
        if len(weights) != workers:
            raise SchemeError(
                f"need {workers} weights, got {len(weights)}"
            )
        # Zero-sized blocks (tiny loops) are nobody's request.
        self._blocks = [
            b for b in weighted_block_sizes(total, weights) if b > 0
        ]

    def _nominal(
        self, rem: int, step: int, wid: int, k: int
    ) -> tuple[int, int]:
        if step < len(self._blocks):
            return self._blocks[step], 0
        # Every planned block is out; whatever remains goes at once so
        # the loop still completes.
        return rem, 0


class BlockCyclicScheduler(Scheduler):
    """Fixed blocks of ``block`` iterations, dealt in request order."""

    name = "BC"
    order_invariant = True

    def __init__(self, total: int, workers: int, block: int = 1) -> None:
        super().__init__(total, workers)
        if block < 1:
            raise SchemeError(f"block must be >= 1, got {block}")
        self.block = int(block)

    @property
    def constant(self) -> int:
        return self.block
