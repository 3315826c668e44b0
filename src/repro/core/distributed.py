"""Distributed self-scheduling schemes -- paper Sec. 3.1 and Sec. 6.

A scheme is *distributed*, in the paper's sense, when it uses **both**
the initial virtual powers of the PEs **and** run-time load information
(the run-queue length each slave piggy-backs onto every request).  The
common pattern, lifted from DTSS (Xu & Chronopoulos 1999):

Master
    1a. Wait for all workers with ``A_i > 0`` to report their ACP;
        compute ``A = sum(A_i)``.
    1b. Derive the base scheme's parameters with ``p := A`` -- i.e. the
        cluster is modelled as ``A`` *virtual unit processors*.
    2a. On each request, record the freshly reported ``A_i``.
    2b. Reply with a chunk scaled by the requester's power share.
    2c. If more than half of the ``A_i`` changed since the parameters
        were derived, re-derive them over the *remaining* iterations.

Steps 1a, 2a and 2c are written once, in
:meth:`DistributedSchedulerBase.step`, the family's stepper
``(wid, acp) -> (start, stop, stage)``; a scheme states only 1b
(``_derive``) and 2b (``_size``).  It is what
:meth:`~repro.core.base.Scheduler.stepper` returns for the family, so
every substrate calls it directly, and ``next_chunk`` is the adapter
every stepped scheduler shares
(:class:`~repro.core.base.SteppedScheduler`).

Schemes implemented on this pattern:

* :class:`DistributedTrapezoidScheduler` (**DTSS**, reviewed; with the
  paper's Sec. 5.2 ACP improvements) -- the trapezoid is laid over the
  ``A`` virtual unit processors and a request from a PE with power
  ``A_i`` receives the next ``A_i`` unit chunks in one message:
  ``C = A_i * (F - D * (S + (A_i - 1)/2))`` with ``S`` the ACP already
  serviced since derivation.
* :class:`DistributedFactoringScheduler` (**DFSS**, new) -- factoring
  stage totals ``SC_k = floor(R / alpha)`` split as ``C_j = SC_k A_j/A``.
* :class:`DistributedFixedIncreaseScheduler` (**DFISS**, new) --
  ``SC_0 = floor(I / X)``, bump ``B = ceil(2I(1-sigma/X)/(sigma(sigma-1)))``,
  final stage takes the exact remainder.
* :class:`DistributedTrapezoidFactoringScheduler` (**DTFSS**, new) --
  stage totals are sums of the next ``A`` nominal unit-trapezoid chunks
  (the DTSS trapezoid grouped stage-wise), split by power share.

Stage accounting under asynchrony: a stage is *consumed* when the ACP
serviced within it reaches ``A`` (the distributed generalization of
"every PE got one chunk").  Fast PEs that re-request early therefore
draw the next stage open exactly as in the simple staged schemes.
"""

from __future__ import annotations

import math
from typing import Optional

from .acp import IMPROVED_ACP, AcpModel
from .base import Reply, Requester, SchemeError, SteppedScheduler, Stepper
from .trapezoid import TrapezoidParams

__all__ = [
    "DistributedSchedulerBase",
    "DistributedTrapezoidScheduler",
    "DistributedFactoringScheduler",
    "DistributedFixedIncreaseScheduler",
    "DistributedTrapezoidFactoringScheduler",
]


class DistributedSchedulerBase(SteppedScheduler):
    """Shared ACP bookkeeping, the "half changed -> re-derive" rule and
    the family's stepper.

    The bookkeeping is incremental: ``A`` and the number of stored
    reports that differ from the ones the parameters were derived from
    are updated wherever a report is stored (:meth:`_record`: a
    request's report, :meth:`observe_acp` at start-up or on a restart).
    A request that repeats its last report costs O(1), and the "more
    than half changed" check is one comparison on every request.
    """

    distributed = True

    def __init__(
        self,
        total: int,
        workers: int,
        acp_model: AcpModel = IMPROVED_ACP,
    ) -> None:
        super().__init__(total, workers)
        self.acp_model = acp_model
        self._acps: dict[int, int] = {}
        #: ``sum(self._acps.values())``, kept by :meth:`_record`.
        self._acp_sum = 0
        #: the reports the parameters were derived from (None before
        #: the first derivation).
        self._derive_acps: Optional[dict[int, int]] = None
        #: stored reports that differ from ``_derive_acps``.
        self._changed = 0
        #: half of ``len(_derive_acps)``; -1 before the first
        #: derivation, so that the first request derives.
        self._half = -1.0
        self.rederivations = 0  # observability: parameter refresh count

    # -- ACP reports -------------------------------------------------------

    def observe_acp(self, worker_id: int, acp: int) -> None:
        """Record a worker's ACP reported outside a request: start-up
        registration (paper 1a) or a restarted PE rejoining."""
        self._record(int(worker_id), acp)

    def _record(self, wid: int, acp: int) -> None:
        """Store ``wid``'s report; keep ``A`` and the changed count."""
        if acp < 0:
            raise SchemeError(f"ACP must be >= 0, got {acp}")
        acp = int(acp)
        acps = self._acps
        old = acps.get(wid)
        acps[wid] = acp
        self._acp_sum += acp if old is None else acp - old
        base = self._derive_acps
        if base is not None:
            was = base.get(wid)
            self._changed += (was != acp) - (old is not None and was != old)

    @property
    def total_acp(self) -> int:
        """``A``: summed ACP of the registered workers (>= 1)."""
        return max(1, self._acp_sum)

    # -- derivation --------------------------------------------------------

    def _ensure_registered(self) -> None:
        """Fill in the V=Q=1 default for workers that never reported.
        The substrates register real ACPs first (paper step 1(a)), so
        only an analytic drain (:func:`repro.core.base.drain`) needs it.
        """
        for wid in range(self.workers):
            if wid not in self._acps:
                self._record(wid, self.acp_model.acp(1.0, 1))

    def _rederive(self) -> None:
        """(Re-)derive the parameters from the reports stored now, over
        the remaining iterations (paper 1b, 2c)."""
        if self._derive_acps is None:
            self._ensure_registered()
        else:
            self.rederivations += 1
        self._derive_acps = dict(self._acps)
        self._changed = 0
        self._half = len(self._derive_acps) / 2
        self._derive(self.remaining)

    def _derive(self, iterations: int) -> None:
        """Recompute scheme parameters over ``iterations`` with p := A."""
        raise NotImplementedError

    def _size(self, wid: int, a: int) -> tuple[int, int]:
        """The scheme's formula for one request from ``wid``, a PE of
        power ``a`` (>= 1): ``(size >= 1, stage)``.  It advances the
        scheme's own state (served ACP, the PE's stage ladder); the
        stepper clips the size and owns the loop state."""
        raise NotImplementedError

    # -- the stepper -------------------------------------------------------

    def _lean_stepper(self, requester: Requester) -> Stepper:
        return self.step

    def step(self, wid: int, acp: Optional[int] = None) -> Reply:
        """The reply to a request from ``wid`` reporting ``acp``.

        The report is recorded before anything is sized, so it takes
        part in this request's "half changed" check (paper 2a/2c).  A
        request without one (the simple protocol) is sized by the
        stored report, or the V=Q=1 default of a PE that never reported.
        """
        if acp is None:
            if self._cursor >= self.total:
                return None
            if self._derive_acps is None:
                self._ensure_registered()
            acp = self._acps.get(wid)
            if acp is None:
                acp = self.acp_model.acp(1.0, 1)
        if self._acps.get(wid) != acp:
            self._record(wid, acp)
        start = self._cursor
        rem = self.total - start
        if rem <= 0:
            return None
        if self._changed > self._half:
            self._rederive()
        size, stage = self._size(wid, acp if acp > 1 else 1)
        stop = self._cursor = start + (size if size < rem else rem)
        self._step += 1
        return start, stop, stage


class DistributedTrapezoidScheduler(DistributedSchedulerBase):
    """DTSS with the paper's improved ACP model (Sec. 3.1 + 5.2)."""

    name = "DTSS"

    def __init__(
        self,
        total: int,
        workers: int,
        acp_model: AcpModel = IMPROVED_ACP,
        last: int = 1,
    ) -> None:
        super().__init__(total, workers, acp_model)
        self.last = int(last)
        self.params: Optional[TrapezoidParams] = None
        self._served_acp = 0  # S: ACP units serviced since derivation

    def _derive(self, iterations: int) -> None:
        self.params = TrapezoidParams.derive(
            iterations, self.total_acp, last=self.last,
            integer_decrement=False,
        )
        self._served_acp = 0

    def _size(self, wid: int, a: int) -> tuple[int, int]:
        params = self.params
        assert params is not None
        chunk = a * (
            params.first
            - params.decrement * (self._served_acp + (a - 1) / 2.0)
        )
        self._served_acp += a
        return max(1, math.floor(chunk)), 0


class _StagedDistributed(DistributedSchedulerBase):
    """Stage machinery shared by DFSS / DFISS / DTFSS.

    Subclasses implement :meth:`_plan_stages`, the lockstep sequence of
    stage *totals* ``SC_1, SC_2, ...`` over a given iteration count.
    Each worker walks its own stage ladder: its ``k``-th request (since
    the last parameter derivation) receives ``round(SC_k * A_j / A)``
    (min 1; the stepper clips to the loop's remaining iterations).
    Per-worker ladders are the asynchronous reading of "at stage k
    every PE gets its power share of SC_k": global-stage bookkeeping
    either lets fast PEs consume slow PEs' shares (request counting) or
    skips stages wholesale (advance-on-repeat), both of which pile
    compensating work onto stragglers.

    A re-derivation (the "more than half the ACPs changed" rule)
    replans the stages over the remaining iterations and resets every
    ladder -- the distributed schemes' load-adaptation step.
    """

    def __init__(
        self,
        total: int,
        workers: int,
        acp_model: AcpModel = IMPROVED_ACP,
    ) -> None:
        super().__init__(total, workers, acp_model)
        self._stage_totals: list[int] = [max(1, total)]
        self._worker_stage: dict[int, int] = {}

    def _derive(self, iterations: int) -> None:
        self._worker_stage.clear()
        totals = [int(sc) for sc in self._plan_stages(iterations) if sc > 0]
        self._stage_totals = totals or [max(1, iterations)]

    def _plan_stages(self, iterations: int) -> list[int]:
        """Lockstep stage totals ``SC_k`` covering ``iterations``."""
        raise NotImplementedError

    def _size(self, wid: int, a: int) -> tuple[int, int]:
        ladder = self._worker_stage
        k = ladder.get(wid, 0)
        ladder[wid] = k + 1
        totals = self._stage_totals
        if k < len(totals):
            share = totals[k] * a / self.total_acp
        else:
            # Beyond the plan (rounding/clipping leftovers): shrinking
            # factoring-style tail.  Replaying the final rung would
            # hand out the plan's *largest* chunks late for increasing
            # schemes (DFISS) -- the straggler pattern stages exist to
            # avoid.
            share = self.remaining * a / (2.0 * self.total_acp)
        return max(1, round(share)), k + 1


class DistributedFactoringScheduler(_StagedDistributed):
    """DFSS: factoring stage totals split by ACP share (paper Sec. 6).

    ``SC_k = floor(R_k / alpha)`` with ``R_k`` the lockstep remainder.
    """

    name = "DFSS"

    def __init__(
        self,
        total: int,
        workers: int,
        acp_model: AcpModel = IMPROVED_ACP,
        alpha: float = 2.0,
    ) -> None:
        if alpha <= 1.0:
            raise SchemeError(f"alpha must be > 1, got {alpha}")
        self.alpha = float(alpha)
        super().__init__(total, workers, acp_model)

    def _plan_stages(self, iterations: int) -> list[int]:
        totals: list[int] = []
        remaining = iterations
        while remaining > 0:
            sc = max(1, int(remaining / self.alpha))
            sc = min(sc, remaining)
            totals.append(sc)
            remaining -= sc
        return totals


class DistributedFixedIncreaseScheduler(_StagedDistributed):
    """DFISS: fixed-increase stage totals split by ACP share.

    ``SC_0 = floor(I / X)``; bump ``B = ceil(2I(1 - sigma/X) /
    (sigma (sigma - 1)))`` (paper Sec. 6, DFISS 1.(b) -- note the
    per-PE divisor of FISS is gone, replaced by the ACP share); the
    final planned stage takes the exact remainder.
    """

    name = "DFISS"

    def __init__(
        self,
        total: int,
        workers: int,
        acp_model: AcpModel = IMPROVED_ACP,
        stages: int = 3,
        x: float | None = None,
    ) -> None:
        self.stages = int(stages)
        if self.stages < 2:
            raise SchemeError(f"DFISS needs >= 2 stages, got {stages}")
        self.x = float(x) if x is not None else float(self.stages + 2)
        if self.x <= self.stages:
            raise SchemeError(
                f"X must exceed sigma for a positive bump: X={self.x}, "
                f"sigma={self.stages}"
            )
        super().__init__(total, workers, acp_model)

    def _plan_stages(self, iterations: int) -> list[int]:
        sigma, x = self.stages, self.x
        sc0 = max(1, int(iterations / x))
        bump = max(
            0,
            math.ceil(2 * iterations * (1 - sigma / x)
                      / (sigma * (sigma - 1))),
        )
        totals = [sc0 + k * bump for k in range(sigma - 1)]
        leftover = iterations - sum(totals)
        totals.append(max(1, leftover))
        return totals


class DistributedTrapezoidFactoringScheduler(_StagedDistributed):
    """DTFSS: DTSS's unit trapezoid, consumed one stage of ``A`` at a time.

    Stage ``k``'s total is the sum of the next ``A`` nominal chunks of
    the unit trapezoid ``TSS(I, A)`` -- by the arithmetic-series identity
    this equals ``A * (F - D * (kA + (A - 1)/2))``, i.e. exactly what
    DTSS would hand a single PE of power ``A``.  The stage is then split
    among requesters by ACP share, which is the TFSS construction
    transplanted onto the virtual-unit-processor cluster.
    """

    name = "DTFSS"

    def __init__(
        self,
        total: int,
        workers: int,
        acp_model: AcpModel = IMPROVED_ACP,
        last: int = 1,
    ) -> None:
        self.last = int(last)
        self.params: Optional[TrapezoidParams] = None
        super().__init__(total, workers, acp_model)

    def _plan_stages(self, iterations: int) -> list[int]:
        a = self.total_acp
        self.params = TrapezoidParams.derive(
            iterations, a, last=self.last, integer_decrement=False
        )
        f, d = self.params.first, self.params.decrement
        totals: list[int] = []
        assigned = 0
        k = 0
        while assigned < iterations:
            sc = math.floor(a * (f - d * (k * a + (a - 1) / 2.0)))
            if sc < 1:
                break
            sc = min(sc, iterations - assigned)
            totals.append(sc)
            assigned += sc
            k += 1
        if assigned < iterations:
            totals.append(iterations - assigned)
        return totals
