"""Trapezoid Self-Scheduling (Tzen & Ni 1993; paper Sec. 2.2).

**TSS** decreases the chunk size *linearly* from a first size ``F`` to a
last size ``L``:

    ``F = floor(I / (2p))`` and ``L = 1`` unless supplied,
    ``N = floor(2I / (F + L))``  (planned number of chunks),
    ``D = floor((F - L) / (N - 1))``  (per-step decrement),
    ``C_i = F - (i - 1) * D``.

For ``I = 1000, p = 4``: ``F = 125, L = 1, N = 15, D = 8``.  The paper's
Table 1 prints the *nominal* arithmetic sequence down to the last value
``>= L``::

    125 117 109 101 93 85 77 69 61 53 45 37 29 21 13 5

Note this sums to 1040 > 1000: the printed row is the formula sequence,
not an executable trace.  The executable scheduler (this class) clips at
the remaining-iteration count, producing ``125 ... 37 28`` (13 chunks).
Both behaviours are exposed: :func:`nominal_tss_chunks` regenerates the
paper's row and feeds TFSS/DTFSS; :class:`TrapezoidScheduler` executes.

Paper's assessment -- *Weaknesses*: still many synchronizations if ``L``
is small (choose ``L > 1`` to improve).  *Strengths*: linear decrease is
cheaper to compute than GSS's geometric decay and empirically performs
better.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from .base import Scheduler, SchemeError

__all__ = ["TrapezoidParams", "TrapezoidScheduler", "nominal_tss_chunks"]


@dataclasses.dataclass(frozen=True)
class TrapezoidParams(object):
    """The derived TSS parameters ``(F, L, N, D)`` for a given loop.

    DTSS (paper Sec. 3.1) re-derives these with the cluster's total
    available power ``A`` in place of ``p``, and again whenever the load
    picture changes, so they are first-class objects here.
    """

    first: int  # F
    last: int  # L
    steps: int  # N
    decrement: float  # D (integral for TSS; fractional for DTSS/DTFSS)

    @classmethod
    def derive(
        cls,
        total: int,
        workers: int,
        first: Optional[int] = None,
        last: int = 1,
        integer_decrement: bool = True,
    ) -> "TrapezoidParams":
        """Compute ``(F, L, N, D)`` per Tzen & Ni's rules.

        ``workers`` may be the PE count ``p`` (TSS) or the total
        available power ``A`` (DTSS).  Degenerate loops (``total`` not
        large enough for a trapezoid) collapse to a single chunk.

        ``integer_decrement=False`` keeps ``D`` fractional.  This
        matters for the distributed schemes: with the scaled ACP model
        ``A`` is an order of magnitude larger than ``p``, so ``F`` is
        small, ``N`` is large, and ``floor((F-L)/(N-1))`` is almost
        always 0 -- the trapezoid would degenerate to constant chunks
        and lose exactly the linear decrease DTSS is built on.  (Even
        the paper's own Sec. 5.2 example, ``I=1000, A=12``, floors to
        ``D=0``.)  DTSS's chunk formula already mixes in the fractional
        term ``(A_i-1)/2``, so a fractional ``D`` is the natural fit.
        """
        if total < 0:
            raise SchemeError(f"total must be >= 0, got {total}")
        if workers < 1:
            raise SchemeError(f"workers must be >= 1, got {workers}")
        if last < 1:
            raise SchemeError(f"last chunk L must be >= 1, got {last}")
        if first is None:
            first = total // (2 * workers)
        if first < last:
            # Tiny loop: degenerate to constant chunks of size ``last``.
            first = last
        if first < 1:
            first = 1
        if total == 0:
            return cls(first=first, last=last, steps=0, decrement=0)
        steps = (2 * total) // (first + last)
        if steps <= 1:
            return cls(first=first, last=last, steps=1, decrement=0)
        decrement: float = (first - last) / (steps - 1)
        if integer_decrement:
            decrement = float(int(decrement))
        return cls(first=first, last=last, steps=steps, decrement=decrement)

    def nominal(self, index: int) -> int:
        """Nominal chunk size at 1-based step ``index``: ``F - (i-1)D``.

        Exact (no rounding) for integral ``D``; floored otherwise.
        """
        if index < 1:
            raise SchemeError(f"step index must be >= 1, got {index}")
        return int(self.first - (index - 1) * self.decrement)


def nominal_tss_chunks(
    total: int,
    workers: int,
    first: Optional[int] = None,
    last: int = 1,
) -> list[int]:
    """The paper-style nominal TSS sequence: ``F, F-D, ...`` while ``>= L``.

    This regenerates Table 1's TSS row verbatim (including its overshoot
    of ``total``); it is also the sequence TFSS groups into stages.
    The sequence is finite: if ``D == 0`` it is truncated so that its sum
    first reaches ``total`` (otherwise a constant sequence would never
    end).
    """
    params = TrapezoidParams.derive(total, workers, first=first, last=last)
    if total == 0:
        return []
    chunks: list[int] = []
    assigned = 0
    i = 1
    while True:
        c = params.nominal(i)
        if c < params.last:
            break
        chunks.append(c)
        assigned += c
        if params.decrement == 0 and assigned >= total:
            break
        # Safety: a positive decrement always terminates; this guards
        # against pathological parameter combinations.
        if i > 2 * total + 2:  # pragma: no cover - defensive
            break
        i += 1
    return chunks


class TrapezoidScheduler(Scheduler):
    """TSS: linearly decreasing chunks, clipped to remaining iterations.

    ``first``/``last`` may be user/compiler supplied (paper: "(F, L) are
    user/compiler-input or ``F = I/(2p), L = 1``").
    """

    name = "TSS"
    decentral = True
    order_invariant = True

    def __init__(
        self,
        total: int,
        workers: int,
        first: Optional[int] = None,
        last: int = 1,
    ) -> None:
        super().__init__(total, workers)
        self.params = TrapezoidParams.derive(
            total, workers, first=first, last=last
        )
        # Integral by construction (``integer_decrement=True``).
        self._dec = int(self.params.decrement)

    def _nominal(
        self, rem: int, step: int, wid: int, k: int
    ) -> tuple[int, int]:
        p = self.params
        return max(p.last, p.first - step * self._dec), 0
