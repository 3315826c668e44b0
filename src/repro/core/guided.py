"""Guided Self-Scheduling (Polychronopoulos & Kuck 1987; paper Sec. 2.2).

**GSS** assigns ``C_i = ceil(R_{i-1} / p)``: each request receives a
``1/p`` share of whatever remains, so chunks decay geometrically from
``~I/p`` down to 1.  For ``I = 1000, p = 4`` this yields the paper's
Table 1 row::

    250 188 141 106 79 59 45 33 25 19 14 11 8 6 4 3 3 2 1 1 1 1

Paper's assessment -- *Weaknesses*: a long tail of size-1 chunks causes
many synchronizations near the end.  *Strengths*: adaptive; big early
chunks keep initial overhead low.  **GSS(k)** bounds the minimum chunk
at a user-chosen ``k`` to blunt the tail.

The paper's own experiments drop GSS in favour of TSS ("its linearized
approximation ... reported to have better performance"), but GSS is part
of the reviewed class and is needed for Table 1, so it is implemented in
full here.
"""

from __future__ import annotations

import math

from .base import Scheduler, SchemeError

__all__ = ["GuidedScheduler"]


class GuidedScheduler(Scheduler):
    """GSS / GSS(k): ``C_i = max(k, ceil(R/p))``."""

    name = "GSS"
    decentral = True
    order_invariant = True

    def __init__(self, total: int, workers: int, min_chunk: int = 1) -> None:
        super().__init__(total, workers)
        if min_chunk < 1:
            raise SchemeError(f"min_chunk must be >= 1, got {min_chunk}")
        self.min_chunk = int(min_chunk)
        if self.min_chunk != 1:
            self.name = f"GSS({self.min_chunk})"

    def _nominal(
        self, rem: int, step: int, wid: int, k: int
    ) -> tuple[int, int]:
        return max(self.min_chunk, math.ceil(rem / self.workers)), 0
