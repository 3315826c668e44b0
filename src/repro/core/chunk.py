"""Pure and fixed-chunk self-scheduling (paper Sec. 2.2, CSS/SS).

**Chunk Self-Scheduling (CSS)** assigns a user-chosen constant ``k``
iterations per request: ``C_i = k``.  For ``k = 1`` this is *pure*
self-scheduling (SS), the finest-grained and therefore
best-load-balanced but highest-overhead policy.

Paper's assessment -- *Weaknesses*: load imbalance risk because the
optimal ``k`` is hard to predict; non-adaptive.  *Strengths*: minimal
scheduling logic and, for large ``k``, few messages.
"""

from __future__ import annotations

from .base import Scheduler, SchemeError

__all__ = ["ChunkScheduler", "PureScheduler"]


class ChunkScheduler(Scheduler):
    """CSS(k): every request receives ``k`` iterations."""

    name = "CSS"
    decentral = True
    order_invariant = True

    def __init__(self, total: int, workers: int, k: int = 1) -> None:
        super().__init__(total, workers)
        if k < 1:
            raise SchemeError(f"chunk size k must be >= 1, got {k}")
        self.k = int(k)
        if self.k != 1:
            self.name = f"CSS({self.k})"

    @property
    def constant(self) -> int:
        return self.k


class PureScheduler(ChunkScheduler):
    """SS: pure self-scheduling, one iteration per request (CSS(1))."""

    name = "SS"

    def __init__(self, total: int, workers: int) -> None:
        super().__init__(total, workers, k=1)
        self.name = "SS"
