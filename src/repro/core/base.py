"""Core abstractions shared by every self-scheduling scheme.

A *scheme* is a chunk-size policy: given the loop size ``I`` and the set
of workers, it decides how many consecutive iterations to hand to each
worker request.  The paper's master--slave protocol (Sec. 2.2) is:

    1. an idle slave sends a request to the master;
    2. the master computes the next chunk size ``C_i`` from the remaining
       iteration count ``R_{i-1}`` (Eq. 1: ``C_i = f(R_{i-1}, p)``) and
       replies with an interval ``[start, stop)``;
    3. the slave computes the interval and piggy-backs the results onto
       its next request.

Schemes here are *pure policies*, independent of any execution substrate:
the discrete-event simulator (:mod:`repro.simulation`), the real
runtimes (:mod:`repro.runtime`) and the replay auditor
(:mod:`repro.verify`) ask through :meth:`Scheduler.stepper`, and the
chunk-trace tools (:mod:`repro.analysis.chunks`) drain the objects.

Two families exist:

* **simple** schemes (paper Sec. 2) ignore worker identity except for
  stage bookkeeping -- every request at the same scheduling step gets the
  same size regardless of which PE asked;
* **distributed** schemes (paper Sec. 3 and 6) scale chunks by the
  requesting worker's *available computing power* (ACP), which every
  request carries.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Iterator, Optional, Sequence

__all__ = [
    "WorkerView",
    "ChunkAssignment",
    "Scheduler",
    "SchemeError",
    "drain",
]

#: ``requester(wid) -> (virtual_power, run_queue)``: the substrate's
#: description of the PE that is asking (paper's ``V_i``, ``Q_i``).
Requester = Callable[[int], tuple[float, int]]
#: The master's reply: ``(start, stop, stage)``, None once the loop is
#: exhausted (terminate).
Reply = Optional[tuple[int, int, int]]
#: ``step(wid, acp) -> Reply``; ``acp`` is the ACP the request carries.
Stepper = Callable[[int, Optional[int]], Reply]


class SchemeError(ValueError):
    """Raised for invalid scheme parameters (e.g. non-positive loop size)."""


@dataclasses.dataclass(frozen=True)
class WorkerView(object):
    """What the master knows about the requesting worker at request time.

    Attributes
    ----------
    worker_id:
        Stable identifier of the requesting PE (0-based).
    virtual_power:
        The PE's *virtual power* ``V_i`` relative to the slowest PE
        (paper Sec. 3.1); 1.0 for homogeneous treatment.  May be a
        decimal value (paper Sec. 5.2-II).
    run_queue:
        Number of processes in the PE's run queue ``Q_i`` *including*
        the loop process itself; hence ``run_queue >= 1``.
    acp:
        The available computing power ``A_i`` as computed by the ACP
        model in force (an integer after scaling).  Simple schemes
        ignore it.  ``None`` means "not reported" (simple protocol).
    """

    worker_id: int
    virtual_power: float = 1.0
    run_queue: int = 1
    acp: Optional[int] = None

    def __post_init__(self) -> None:
        if self.worker_id < 0:
            raise SchemeError(f"worker_id must be >= 0, got {self.worker_id}")
        if self.virtual_power <= 0:
            raise SchemeError(
                f"virtual_power must be > 0, got {self.virtual_power}"
            )
        if self.run_queue < 1:
            raise SchemeError(f"run_queue must be >= 1, got {self.run_queue}")


@dataclasses.dataclass(frozen=True)
class ChunkAssignment(object):
    """A half-open interval of loop iterations handed to one worker.

    The master replies to each request "with a pair of numbers
    representing the interval of iterations the slave should work on"
    (paper Sec. 5); this is that pair plus bookkeeping.
    """

    start: int
    stop: int
    worker_id: int
    step: int  # scheduling step index (1-based, paper's ``i``)
    stage: int = 0  # stage index for staged schemes (FSS/FISS/TFSS), else 0

    @property
    def size(self) -> int:
        """Number of iterations in the chunk (paper's ``C_i``)."""
        return self.stop - self.start

    def indices(self) -> range:
        """The iteration indices covered, as a :class:`range`."""
        return range(self.start, self.stop)

    def __post_init__(self) -> None:
        if self.stop <= self.start:
            raise SchemeError(
                f"empty/negative chunk [{self.start}, {self.stop})"
            )


class Scheduler(object):
    """Chunk-size policy over a loop of ``total`` iterations.

    A scheme states its formula **once**, as the pure method
    :meth:`_nominal` ``(rem, step, wid, k) -> (size, stage)`` -- the
    paper's Eq. 1, ``C_i = f(R_{i-1}, p)``, plus the requester view.
    It reads scheme parameters and nothing else: every piece of loop
    state (cursor, step, per-worker request counts, the clip rule)
    belongs to whoever *drives* the formula.

    A substrate asks one way, :meth:`stepper`; for a scheme that is its
    formula that is a closure over :meth:`_nominal`.  Beside it stand
    the lockstep :class:`repro.core.kernel.ChunkCalculator`, which
    tabulates a whole ladder, and the analytic fast path's inlined arm,
    the same few lines around the fast loop's own cursor.  That arm
    stays because calling the closure per chunk measured 10.6% slower
    on the ledger's ``sweep_fast`` (``jobs_per_s`` medians 3006 ->
    2688, +21% ``job_p95_ms``, 6 of 6 alternating pairs).

    A scheme states :meth:`_nominal` (pure) or overrides :meth:`stepper`
    (stateful: the ACP-driven family, the adaptive meta-scheduler);
    :meth:`next_chunk` is the object protocol's one adapter over
    whichever it is.

    A scheduler instance is single-use: it walks the loop from iteration
    0 to ``total`` exactly once.  Create a fresh instance per run (the
    :func:`repro.core.registry.make` factory does this for you).
    """

    #: human-readable scheme name (e.g. ``"TSS"``); set by subclasses.
    name: str = "?"
    #: True for schemes that consume worker ACP (paper Sec. 6 pattern).
    distributed: bool = False
    #: True for schemes that retune themselves between stages
    #: (:class:`repro.adaptive.AdaptiveScheduler`): the analytic fast
    #: path refuses the run.  Read by
    #: :func:`repro.simulation.fastpath.master_fast_reason` alone; the
    #: substrates call :meth:`bind_workload` / :meth:`drain_decisions`
    #: on every scheduler.
    feedback_dependent: bool = False
    #: True when :meth:`_nominal` ignores request order and worker
    #: identity once read in lockstep (ordinal ``m`` is worker
    #: ``m % p``'s request ``m // p``), i.e. the scheme has a
    #: substrate-independent decentral form
    #: (:func:`repro.core.kernel.make_calculator`).
    decentral: bool = False
    #: True when chunk boundaries are a pure function of the remaining
    #: count / step index -- independent of which worker asks, or how
    #: often.  Only these have a substrate-independent reference replay
    #: (:func:`repro.verify.replay_cut_points`), and the auditor's
    #: policy-conformance step checks exactly the schemes that set it
    #: (``tests/core/test_properties.py`` proves the flag per registry
    #: scheme).  The stage ladders (FSS/FISS/TFSS) descend per-PE, WF
    #: weighs by requester, and the distributed family consumes
    #: runtime ACP reports.
    order_invariant: bool = False

    def __init__(self, total: int, workers: int) -> None:
        if total < 0:
            raise SchemeError(f"total iterations must be >= 0, got {total}")
        if workers < 1:
            raise SchemeError(f"workers must be >= 1, got {workers}")
        self.total = int(total)
        self.workers = int(workers)
        self._cursor = 0
        self._step = 0
        #: worker id -> requests served so far (``k`` of the next one).
        self._requests: dict[int, int] = {}
        self._stage = 0

    # -- public protocol ---------------------------------------------------

    @property
    def remaining(self) -> int:
        """Iterations not yet assigned (paper's ``R_i``)."""
        return self.total - self._cursor

    @property
    def steps_taken(self) -> int:
        """Number of chunks assigned so far (paper's ``N`` at the end)."""
        return self._step

    @property
    def finished(self) -> bool:
        """True once every iteration has been assigned."""
        return self._cursor >= self.total

    @property
    def constant(self) -> Optional[int]:
        """The nominal size when every request gets the same one.

        SS, CSS and BC say so here; drivers may then skip the per-chunk
        :meth:`_nominal` call (and tabulate in closed form).
        """
        return None

    def stepper(self, requester: Requester) -> Stepper:
        """The one way a substrate asks: ``step(wid, acp)``, where
        ``requester`` describes the PE asking.

        Here that is the formula closure: :meth:`_nominal` at the
        scheduler's own cursor, step and request counts, floored at 1
        and clipped to the remaining iterations.  It is tagged
        ``formula``, so the fast path may inline it.  A stateful scheme
        overrides this method instead (the ACP family returns its
        ``step``, the adaptive meta-scheduler its stage driver); a
        replacement on the instance is what every substrate then asks.
        """
        total = self.total
        nominal = self._nominal
        # A constant formula (SS, CSS, BC) needs no call at all.
        const = self.constant

        def step(wid: int, acp: Optional[int] = None) -> Reply:
            start = self._cursor
            rem = total - start
            if rem <= 0:
                return None
            requests = self._requests
            k = requests.get(wid, 0)
            requests[wid] = k + 1
            if const is None:
                size, stage = nominal(rem, self._step, wid, k)
                size = int(size)
            else:
                size, stage = const, 0
            if size < 1:
                size = 1
            stop = self._cursor = start + (size if size < rem else rem)
            self._step += 1
            self._stage = stage
            return start, stop, stage

        step.formula = True  # type: ignore[attr-defined]
        return step

    def next_chunk(self, view: WorkerView) -> Optional[ChunkAssignment]:
        """Assign the next chunk to the worker ``view`` describes: one
        step of :meth:`stepper`, as an object.

        Returns ``None`` when the loop is exhausted (the master then
        replies with a termination message).  The returned interval is
        clipped to the remaining iterations, so chunk sizes always
        conserve the loop: the sizes over a full drain sum to ``total``.
        """
        got = self.stepper(
            lambda _wid: (view.virtual_power, view.run_queue)
        )(view.worker_id, view.acp)
        if got is None:
            return None
        return ChunkAssignment(
            start=got[0], stop=got[1], worker_id=view.worker_id,
            step=self._step, stage=got[2],
        )

    # -- subclass hook -----------------------------------------------------

    def _nominal(
        self, rem: int, step: int, wid: int, k: int
    ) -> tuple[int, int]:
        """The scheme's formula: ``(nominal size, stage)``.

        ``rem`` is the remaining iteration count, ``step`` the 0-based
        global scheduling step, ``wid`` the requester and ``k`` the
        requester's own 0-based request index.  Pure: no side effects,
        no loop state on ``self``.  The driver floors the size at 1 and
        clips it to ``rem``.
        """
        const = self.constant
        if const is None:
            raise NotImplementedError(
                f"{type(self).__name__} implements neither _nominal "
                f"nor stepper"
            )
        return const, 0

    # -- substrate hooks (inert here; ACP-driven / adaptive schemes override)

    def observe_acp(self, worker_id: int, acp: int) -> None:
        """Record a worker's freshly reported ACP.

        Simple schemes ignore ACP reports; distributed schemes
        (:mod:`repro.core.distributed`) use them for chunk scaling and
        for the "more than half changed -> re-derive parameters" rule.
        """

    def bind_workload(self, workload: Any) -> None:
        """The substrate hands over the loop it is about to run.

        Fixed schemes size chunks from their parameters alone and
        ignore it; the adaptive meta-scheduler reads per-chunk costs
        from it to score a finished stage.
        """

    def drain_decisions(self) -> Sequence[Any]:
        """Policy decisions made since the last drain, which the
        substrate mirrors into ``adapt`` events; fixed schemes make
        none."""
        return ()

    def describe(self) -> dict[str, object]:
        """Introspection: the scheme's identity and public parameters.

        Returns name, class, distributed flag, loop size, and every
        public scalar attribute set by the constructor (``alpha``,
        ``stages``, ``k``, ...).  Used by the CLI's ``schemes`` listing
        and handy for experiment logging.
        """
        skip = {"name", "total", "workers", "distributed"}
        params = {}
        for key, value in vars(self).items():
            if key.startswith("_") or key in skip:
                continue
            if isinstance(value, (int, float, str, bool)):
                params[key] = value
        return {
            "name": self.name,
            "class": type(self).__name__,
            "distributed": self.distributed,
            "total": self.total,
            "workers": self.workers,
            "params": params,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} {self.name} total={self.total} "
            f"workers={self.workers} remaining={self.remaining}>"
        )


def drain(scheduler: Scheduler, worker_cycle: Optional[list[WorkerView]] = None
          ) -> Iterator[ChunkAssignment]:
    """Exhaust ``scheduler`` by round-robin requests; yield assignments.

    This is the analytical driver used for chunk traces (Table 1): it
    mimics a perfectly synchronous master--slave round in which workers
    request in a fixed cyclic order.  Execution substrates issue requests
    in completion order instead.
    """
    if worker_cycle is None:
        worker_cycle = [WorkerView(i) for i in range(scheduler.workers)]
    if not worker_cycle:
        raise SchemeError("worker_cycle must not be empty")
    i = 0
    while True:
        chunk = scheduler.next_chunk(worker_cycle[i % len(worker_cycle)])
        if chunk is None:
            return
        yield chunk
        i += 1
