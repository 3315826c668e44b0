"""Adaptive meta-scheduler: pick and retune the scheme *during* the loop.

The paper fixes one scheme (TSS/FSS/TFSS/...) before the loop starts,
but its own tables show no scheme wins on every workload/cluster shape.
Following "An Adaptive Self-Scheduling Loop Scheduler" (arXiv:2007.07977)
and "OpenMP Loop Scheduling Revisited" (arXiv:1809.03188), this module
chooses and retunes the scheme *online*:

* the remaining iteration space is split into **stages**; each stage is
  scheduled by a fresh fixed-scheme sub-scheduler from the registry,
  offset to the stage's base -- so the concatenated stages tile
  ``[0, N)`` exactly once *by construction*, faults or not;
* a **discounted UCB bandit** over a configurable candidate set picks
  the scheme for each stage: every candidate is explored once (in a
  seeded order), then the arm with the best discounted efficiency
  estimate plus an exploration bonus wins;
* an **online tuner** (Booth-style runtime chunk adaptation) re-derives
  the chosen scheme's chunk parameters between stages from the observed
  per-chunk cost mean/variance -- e.g. high variance shrinks CSS's
  ``k`` and raises FSS's ``alpha``.

The policy is **deterministic given its seed and its observations**,
and its observations are the per-chunk workload costs and the static
virtual powers -- nothing a substrate measures -- so the same spec +
seed + workload reproduce the same decision sequence bit for bit on
the simulator and the real runtime.

Every decision lands in :attr:`AdaptiveScheduler.decisions` (a
:class:`StageDecision` log) and is mirrored to the substrates'
``adapt`` ObsEvents, so a trace explains every switch and retune;
:func:`repro.verify.audit_adaptive` replays each stage's cut points
from that log.  Adaptive runs refuse the analytic fast path (see
``docs/performance.md``) and the decentral chunk calculators (there
is no pure ladder to precompute).

Build one via the registry -- ``make("adaptive:TSS+FSS+GSS@6", N, p)``
-- or any string-scheme entry point (``simulate``, ``run_parallel``,
``SimJob``, the CLIs).  Spec grammar::

    adaptive                          # default candidates + stages
    adaptive:TSS+CSS(64)+GSS          # explicit candidate set
    adaptive:TSS+FSS@8                # ~8 stages over the loop
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Optional, Sequence

from .core import registry as _registry
from .core.base import Reply, Requester, Scheduler, SchemeError
from .core.base import SteppedScheduler, Stepper

__all__ = [
    "DEFAULT_CANDIDATES",
    "StageDecision",
    "StageStats",
    "DiscountedUCB",
    "AdaptiveScheduler",
    "retune_kwargs",
]

#: Default candidate set: the paper's strongest simple schemes plus GSS
#: -- all decent everywhere, so exploration is never catastrophic.
DEFAULT_CANDIDATES: tuple[str, ...] = ("TSS", "FSS", "GSS", "TFSS")

#: Per-chunk dispatch overhead expressed in *mean iterations*: the
#: efficiency proxy charges each chunk this many average-cost
#: iterations, so finer chunking is penalized scale-freely.
OVERHEAD_ITERS = 2.0


@dataclasses.dataclass(frozen=True)
class StageDecision(object):
    """One policy decision, recorded when a stage opens.

    ``kind`` is ``"select"`` (the bandit chose ``scheme`` for the stage
    ``[base, base + size)``) or ``"retune"`` (the tuner changed the
    scheme's parameters away from their defaults; always paired with
    the same stage's select).  ``reward`` is the efficiency posted for
    the *previous* stage (None for the first).
    """

    stage: int  # 1-based stage ordinal
    base: int
    size: int
    scheme: str  # candidate spec, e.g. "CSS(64)"
    kind: str  # "select" | "retune"
    params: dict
    reward: Optional[float] = None
    seed: int = 0

    def summary(self) -> str:
        """Compact human-readable form (rides in ObsEvent.detail)."""
        extra = ""
        if self.kind == "retune" and self.params:
            extra = " " + " ".join(
                f"{k}={v}" for k, v in sorted(self.params.items())
            )
        return f"{self.kind} {self.scheme}{extra}"


@dataclasses.dataclass(frozen=True)
class StageStats(object):
    """What the tuner learned from one completed stage."""

    chunks: int
    iterations: int
    mean_cost: float  # mean per-iteration cost
    cv: float  # coefficient of variation of per-chunk iteration cost
    reward: float  # efficiency posted to the bandit


@dataclasses.dataclass
class _StageRecord(object):
    """Internal per-stage ledger: the chunks this stage handed out."""

    index: int
    base: int
    size: int
    arm: int
    spans: list = dataclasses.field(default_factory=list)


class DiscountedUCB(object):
    """Discounted UCB bandit over ``n_arms`` arms, seeded + deterministic.

    ``select`` first plays every arm once in a seeded shuffle order,
    then maximizes ``q + explore * sqrt(log(T + 1) / n)`` where counts
    and value sums decay by ``discount`` at every update -- recent
    stages dominate, so the policy tracks drifting workloads (load
    spikes, phase changes).  Ties break on the shuffle order, so the
    whole trajectory is a pure function of (seed, reward sequence).
    """

    def __init__(
        self,
        n_arms: int,
        seed: int = 0,
        discount: float = 0.9,
        explore: float = 0.15,
    ) -> None:
        if n_arms < 1:
            raise SchemeError(f"bandit needs >= 1 arm, got {n_arms}")
        if not 0.0 < discount <= 1.0:
            raise SchemeError(f"discount must be in (0, 1], got {discount}")
        self.n_arms = int(n_arms)
        self.discount = float(discount)
        self.explore = float(explore)
        self.counts = [0.0] * n_arms
        self.sums = [0.0] * n_arms
        self.updates = 0
        order = list(range(n_arms))
        random.Random(seed).shuffle(order)
        #: seeded exploration order; doubles as the tie-break priority.
        self.order = order
        self._priority = {arm: i for i, arm in enumerate(order)}

    def select(self) -> int:
        for arm in self.order:
            if self.counts[arm] == 0.0:
                return arm
        horizon = math.log(self.updates + 1.0)
        best_arm = self.order[0]
        best_key: Optional[tuple[float, float]] = None
        for arm in range(self.n_arms):
            n = self.counts[arm]
            ucb = self.sums[arm] / n + self.explore * math.sqrt(
                horizon / n
            )
            # Higher UCB wins; equal UCBs fall back to shuffle priority.
            key = (-ucb, self._priority[arm])
            if best_key is None or key < best_key:
                best_key = key
                best_arm = arm
        return best_arm

    def update(self, arm: int, reward: float) -> None:
        g = self.discount
        for a in range(self.n_arms):
            self.counts[a] *= g
            self.sums[a] *= g
        self.counts[arm] += 1.0
        self.sums[arm] += float(reward)
        self.updates += 1


def _weighted_cv(costs: Sequence[float], sizes: Sequence[int]) -> float:
    """Size-weighted coefficient of variation of per-iteration cost."""
    iters = sum(sizes)
    total = sum(costs)
    if iters <= 0 or total <= 0:
        return 0.0
    mean = total / iters
    var = 0.0
    for c, s in zip(costs, sizes):
        u = c / s
        var += s * (u - mean) ** 2
    var /= iters
    return math.sqrt(var) / mean


def _balance_efficiency(
    costs: Sequence[float], speeds: Sequence[float], overhead: float
) -> float:
    """Self-scheduling emulation as an efficiency in ``(0, 1]``.

    Chunks are replayed in hand-out order against the known effective
    speeds ``V_i / Q_i``: each goes to the PE that frees up first,
    charged ``overhead`` extra (the per-chunk dispatch penalty), and
    the reward is ideal parallel time over the emulated makespan.

    Ties -- notably the stage front, where every PE is free -- break
    toward the *slowest* PE: self-scheduling gives no control over
    which PE requests first, so a scheme whose front chunk is huge is
    scored as if that chunk lands badly.  This is what makes the score
    heterogeneity-aware (GSS's coarse front on a slow PE scores low)
    while staying a pure function of (span sequence, speed map) --
    identical on every substrate, unlike the actual worker identities,
    which depend on wall-clock arrival order.
    """
    if not costs:
        return 1.0
    speeds = [max(float(s), 1e-12) for s in speeds] or [1.0]
    p = len(speeds)
    loads = [0.0] * p
    for c in costs:
        i = min(
            range(p), key=lambda w: (loads[w] / speeds[w], speeds[w], w)
        )
        loads[i] += c + overhead
    makespan = max(l / s for l, s in zip(loads, speeds))
    if makespan <= 0.0:
        return 1.0
    ideal = sum(loads) / sum(speeds)
    return min(1.0, ideal / makespan)


def retune_kwargs(
    key: str,
    inline: dict,
    stats: StageStats,
    stage_size: int,
    workers: int,
) -> dict:
    """Booth-style parameter re-derivation for the next stage.

    Given the observed cost variation ``stats.cv``, re-derive the
    scheme's chunk parameters over the coming ``stage_size`` iterations:
    low variance coarsens chunks (dispatch overhead dominates), high
    variance refines them (load balance dominates).  Deterministic;
    schemes without a retunable knob return ``{}``.
    """
    cv = min(stats.cv, 1.5)
    if key == "CSS":
        # Target ~2 chunks/worker when uniform, up to ~11 when spiky.
        per_worker = 2.0 + 6.0 * cv
        k = max(1, math.ceil(stage_size / (per_worker * workers)))
        if inline.get("k") == k:
            return {}
        return {"k": k}
    if key == "GSS":
        min_chunk = max(
            1, int(stage_size / (workers * (4.0 + 12.0 * min(cv, 1.0))))
        )
        if min_chunk == inline.get("min_chunk", 1):
            return {}
        return {"min_chunk": min_chunk}
    if key in ("TSS", "TFSS"):
        first = max(
            1,
            math.ceil(stage_size / ((2.0 + 2.0 * min(cv, 1.0)) * workers)),
        )
        return {"first": first}
    if key == "FSS":
        alpha = round(2.0 + 2.0 * min(cv, 1.0), 3)
        if alpha == 2.0:
            return {}
        return {"alpha": alpha}
    return {}


def _normalize_candidates(
    candidates: Optional[Sequence[str]],
) -> tuple[str, ...]:
    """Validate a candidate set; each entry must be a fixed, master-
    servable registry scheme (no nesting, no ACP-driven family)."""
    cands = (
        DEFAULT_CANDIDATES if candidates is None else tuple(candidates)
    )
    if not cands:
        raise SchemeError(
            "adaptive candidate set is empty; give at least one scheme, "
            f"e.g. {'+'.join(DEFAULT_CANDIDATES)}"
        )
    normalized = []
    for cand in cands:
        key, _inline = _registry.parse(cand)
        if key == "ADAPTIVE":
            raise SchemeError(
                "adaptive candidates must be fixed schemes; nesting "
                "'adaptive' inside itself is not allowed"
            )
        if _registry.SCHEMES[key].distributed:
            fixed = [
                n for n, cls in _registry.SCHEMES.items()
                if not cls.distributed
            ]
            raise SchemeError(
                f"candidate {cand!r} is ACP-driven (distributed) and "
                f"cannot be adaptively staged; pick from: "
                f"{', '.join(fixed)}"
            )
        normalized.append(cand.strip().upper())
    return tuple(normalized)


class AdaptiveScheduler(SteppedScheduler):
    """Stage-wise meta-scheduler over the fixed-scheme registry.

    Implements the standard :class:`~repro.core.base.Scheduler`
    protocol, so every master-dispatch substrate (simulator engine,
    runtime master, batch/CLI) drives it unchanged.  Internally each
    stage steps a fresh sub-scheduler built over the stage's size; the
    inherited cursor does the offsetting, so exactly-once tiling holds
    no matter what the policy decides.

    Substrate hooks (inert on :class:`~repro.core.base.Scheduler`,
    live here):

    * :meth:`bind_workload` -- gives the cost feedback loop the
      workload's per-chunk costs (called by the sim engine and
      ``run_parallel`` for every scheduler);
    * :meth:`drain_decisions` -- fresh :class:`StageDecision` records
      for ``adapt`` ObsEvent emission.
    """

    name = "adaptive"
    distributed = False
    #: The analytic fast path refuses the run (see
    #: :func:`repro.simulation.fastpath.master_fast_reason`).
    feedback_dependent = True

    def __init__(
        self,
        total: int,
        workers: int,
        candidates: Optional[Sequence[str]] = None,
        stages: Optional[int] = None,
        seed: int = 0,
        discount: float = 0.9,
        explore: float = 0.15,
        explore_frac: float = 0.25,
    ) -> None:
        super().__init__(total, workers)
        self.candidates = _normalize_candidates(candidates)
        n_cand = len(self.candidates)
        if stages is None:
            stages = n_cand + 3
        if int(stages) < 1:
            raise SchemeError(
                f"bad stage count {stages!r} for adaptive: must be a "
                f"positive integer"
            )
        self.stages = int(stages)
        self._cur_spans: list[tuple[int, int]] = []
        self.seed = int(seed)
        if not 0.0 < explore_frac < 1.0:
            raise SchemeError(
                f"explore_frac must be in (0, 1), got {explore_frac}"
            )
        self.explore_frac = float(explore_frac)
        self._bandit = DiscountedUCB(
            n_cand, seed=self.seed, discount=discount, explore=explore
        )
        self._min_stage = max(1, 2 * self.workers)
        #: worker id -> static virtual power V_i, as last reported.
        self._speeds: dict[int, float] = {}
        self._workload = None
        self._sub: Optional[Scheduler] = None
        self._sub_base = 0
        self._records: list[_StageRecord] = []
        #: full decision log, in decision order (never cleared).
        self.decisions: list[StageDecision] = []
        self._fresh: list[StageDecision] = []
        self._stage_count = 0

    # -- substrate hooks ---------------------------------------------------

    def bind_workload(self, workload) -> None:
        """Attach the workload whose per-chunk costs drive feedback."""
        if workload.size != self.total:
            raise SchemeError(
                f"workload has {workload.size} iterations but the "
                f"scheduler covers {self.total}"
            )
        self._workload = workload

    def drain_decisions(self) -> list[StageDecision]:
        """Decisions made since the last drain (for ObsEvent emission)."""
        if not self._fresh:
            return []
        fresh = self._fresh
        self._fresh = []
        return fresh

    # -- policy ------------------------------------------------------------

    def _lean_stepper(self, requester: Requester) -> Stepper:
        """Drive the current stage's sub-scheduler through its own
        stepper; a dry one opens the next stage."""
        total, speeds = self.total, self._speeds
        sub = self._sub
        sub_step = None if sub is None else sub.stepper(requester)

        def step(wid: int, acp: Optional[int] = None) -> Reply:
            nonlocal sub_step
            if self._cursor >= total:
                return None
            got = None if sub_step is None else sub_step(wid, acp)
            if got is None:
                sub_step = self._open_stage().stepper(requester)
                got = sub_step(wid, acp)
                assert got is not None  # a stage is never empty
            base = self._sub_base
            start, stop = base + got[0], base + got[1]
            self._cursor = stop
            self._step += 1
            # The *static* virtual power only: the run queue is
            # runtime-observed state (the simulator's load model sees a
            # spike, the real runtime's requester does not), so folding
            # it in would break substrate-invariant decisions.
            speeds[wid] = requester(wid)[0]
            self._cur_spans.append((start, stop))
            return start, stop, self._stage_count

        return step

    def _next_stage_size(self, remaining: int) -> int:
        n_cand = len(self.candidates)
        opened = self._stage_count
        if opened < n_cand and n_cand > 1:
            # Exploration round: one small stage per candidate, jointly
            # covering ~explore_frac of the loop, so a bad candidate
            # can only hurt a bounded slice.
            size = max(
                self._min_stage,
                math.ceil(self.total * self.explore_frac / n_cand),
            )
        else:
            left = max(1, self.stages - opened)
            size = math.ceil(remaining / left)
        return max(1, min(size, remaining))

    def _stage_stats(self, rec: _StageRecord) -> StageStats:
        sizes = [stop - start for start, stop in rec.spans]
        workload = self._workload
        if workload is not None:
            costs = [
                float(workload.chunk_cost(start, stop))
                for start, stop in rec.spans
            ]
        else:
            costs = [float(s) for s in sizes]
        iters = sum(sizes)
        mean_cost = (sum(costs) / iters) if iters else 0.0
        cv = _weighted_cv(costs, sizes)
        overhead = OVERHEAD_ITERS * mean_cost
        # Unseen PEs default to speed 1.0 -- virtual power is relative
        # to the slowest PE, so "unknown" scores as "slowest".
        speeds = [
            self._speeds.get(w, 1.0) for w in range(self.workers)
        ]
        reward = _balance_efficiency(costs, speeds, overhead)
        return StageStats(
            chunks=len(rec.spans),
            iterations=iters,
            mean_cost=mean_cost,
            cv=cv,
            reward=reward,
        )

    def _close_stage(self) -> Optional[StageStats]:
        if not self._records:
            return None
        rec = self._records[-1]
        stats = self._stage_stats(rec)
        self._bandit.update(rec.arm, stats.reward)
        return stats

    def _open_stage(self) -> Scheduler:
        """Score the finished stage, open the next; returns its scheme."""
        stats = self._close_stage()
        base = self._cursor
        remaining = self.total - base
        size = self._next_stage_size(remaining)
        arm = self._bandit.select()
        candidate = self.candidates[arm]
        key, inline = _registry.parse(candidate)
        retuned: dict = {}
        if stats is not None:
            retuned = retune_kwargs(
                key, inline, stats, size, self.workers
            )
        sub = _registry.make(candidate, size, self.workers, **retuned)
        self._sub = sub
        self._sub_base = base
        self._stage_count += 1
        rec = _StageRecord(
            index=self._stage_count, base=base, size=size, arm=arm
        )
        self._records.append(rec)
        self._cur_spans = rec.spans
        params = dict(inline)
        params.update(retuned)
        decision = StageDecision(
            stage=self._stage_count,
            base=base,
            size=size,
            scheme=candidate,
            kind="select",
            params=params,
            reward=None if stats is None else stats.reward,
            seed=self.seed,
        )
        self.decisions.append(decision)
        self._fresh.append(decision)
        if retuned:
            tune = dataclasses.replace(
                decision, kind="retune", params=dict(retuned)
            )
            self.decisions.append(tune)
            self._fresh.append(tune)
        return sub

    # -- introspection -----------------------------------------------------

    def stage_decisions(self) -> list[StageDecision]:
        """The ``select`` decisions only, in stage order."""
        return [d for d in self.decisions if d.kind == "select"]

    def describe(self) -> dict[str, object]:
        info = super().describe()
        info["params"]["candidates"] = "+".join(self.candidates)
        return info
