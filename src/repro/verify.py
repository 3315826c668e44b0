"""Trace invariant auditor: proof-check a run's chunk trace.

Every substrate in this repo -- the master--slave simulator, the TreeS
simulator, and the real multiprocessing runtime -- produces a chunk
trace: which worker executed which half-open interval ``[start, stop)``
and (for simulations) when.  The auditor checks the invariants that any
*correct* self-scheduled run must satisfy, fault plan or not:

* **exactly-once coverage** -- the executed intervals tile ``[0, I)``
  with no gap and no overlap, even across death/requeue/recompute
  cycles (the chunk log keeps only the incarnation that delivered);
* **sane chunks** -- every interval is non-empty and inside the loop;
* **monotone event times** -- ``0 <= assigned_at <= completed_at``,
  per-worker chunks do not overlap in time, and the reported parallel
  time ``T_p`` is not before the last completion;
* **metrics agreement** -- per-worker chunk/iteration counters match
  the trace (deaths must roll both back consistently);
* **ACP bounds** -- reported ACPs are positive integers, and at most
  ``scale * max(V_i)`` when the cluster is known;
* **policy conformance** -- for ``Scheduler.order_invariant`` schemes,
  the trace's interval boundaries equal one pure scheduler replay's
  (requeued intervals are reassigned verbatim, so faults must not move
  a single cut point).

:func:`audit_sim` (a :class:`~repro.simulation.SimResult`),
:func:`audit_run` (a runtime result or a bare ``(worker, start,
stop)`` chunk log), :func:`audit_adaptive` (an adaptive run against
its decision log) and :func:`audit_events` (the :mod:`repro.obs`
stream of any substrate) share one pipeline: the trace becomes
``(worker, start, stop)`` rows, one coverage step proves the tiling,
and one conformance step compares its cut points with one
:func:`replay_cut_points`.  All return an :class:`AuditReport`;
``report.raise_if_failed()`` turns violations into an
:class:`AuditError`.  ``repro-experiments verify-chaos`` wraps them.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import Scheduler, make
from .core import registry as _registry
from .obs.events import ObsEvent, SchemaError, validate_event
from .obs.export import event_line

__all__ = [
    "AuditError",
    "AuditReport",
    "audit_adaptive",
    "audit_events",
    "audit_service_log",
    "audit_sim",
    "audit_subscription",
    "audit_run",
    "replay_cut_points",
]

#: tolerance for floating-point time comparisons.
_EPS = 1e-9

#: Event sources whose ``t`` values share one monotone clock for the
#: whole run (virtual simulation time, or the master's single
#: ``monotonic`` base).  Worker-process sources are excluded: each
#: incarnation stamps ``t`` from its own birth, so a chaos respawn
#: legitimately resets the clock.
_MONOTONE_SOURCES = frozenset(
    {"sim.master", "sim.tree", "sim.decentral", "runtime.master"}
)


class AuditError(AssertionError):
    """A trace violated a run invariant (see :class:`AuditReport`)."""


@dataclasses.dataclass
class AuditReport(object):
    """Outcome of one audit: which checks ran, what they found.

    ``checks`` lists every invariant that was actually evaluated (some,
    like policy conformance, are skipped when they do not apply);
    ``violations`` holds one human-readable line per broken invariant.
    """

    subject: str
    checks: list[str] = dataclasses.field(default_factory=list)
    violations: list[str] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_failed(self) -> "AuditReport":
        if self.violations:
            lines = "\n  - ".join(self.violations)
            raise AuditError(
                f"{self.subject}: {len(self.violations)} invariant "
                f"violation(s):\n  - {lines}"
            )
        return self

    def summary(self) -> str:
        state = "OK" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        lines = [f"{self.subject}: {state} "
                 f"({len(self.checks)} checks: {', '.join(self.checks)})"]
        lines.extend(f"  - {v}" for v in self.violations)
        return "\n".join(lines)


def _rows(trace) -> list[tuple[int, int, int]]:
    """The ``(worker, start, stop)`` rows of a chunk trace: a
    :class:`~repro.simulation.SimResult`, a runtime result (``.chunks``
    of triples) or a bare triple list."""
    return [
        (rec.worker, rec.start, rec.stop) if hasattr(rec, "start")
        else tuple(rec)
        for rec in getattr(trace, "chunks", trace)
    ]


def _check_coverage(
    rows: Sequence[tuple[int, int, int]],
    total: Optional[int],
    report: AuditReport,
) -> int:
    """Exactly-once tiling of ``[0, total)``, ``total`` defaulting to
    the count the trace implies; returns the ``total`` checked."""
    if total is None:
        total = max((stop for _w, _start, stop in rows), default=0)
    report.checks.append("coverage")
    report.checks.append("chunk-sanity")
    spans = [(start, stop) for _w, start, stop in rows]
    bad = [s for s in spans if s[1] <= s[0] or s[0] < 0 or s[1] > total]
    for start, stop in bad[:5]:
        report.violations.append(
            f"chunk [{start}, {stop}) is empty or outside [0, {total})"
        )
    if bad:
        return total
    cursor = 0
    for start, stop in sorted(spans):
        if start > cursor:
            report.violations.append(
                f"gap: iterations [{cursor}, {start}) never executed"
            )
        elif start < cursor:
            report.violations.append(
                f"overlap: iteration {start} executed more than once "
                f"(chunk [{start}, {stop}))"
            )
        cursor = max(cursor, stop)
    if cursor < total:
        report.violations.append(
            f"gap: iterations [{cursor}, {total}) never executed"
        )
    return total


def _check_result_length(results, total: int, report: AuditReport) -> None:
    """Collected results must be able to cover ``total`` iterations.

    Workloads may produce one value *or one fixed-width vector* per
    iteration (e.g. a Mandelbrot column), so any positive integer
    multiple of ``total`` is a legal flattened length.
    """
    report.checks.append("result-length")
    n = len(results)
    if not (n == 0 if total == 0 else n >= total and n % total == 0):
        report.violations.append(
            f"collected results hold {n} values for a {total}-iteration "
            f"loop"
        )


def replay_cut_points(
    scheme: str | Scheduler,
    total: int,
    workers: int,
    order: Optional[Sequence[int]] = None,
    **scheme_kwargs,
) -> Optional[frozenset[int]]:
    """Interval boundaries a pure scheduler replay would produce.

    Asks the scheduler the one way every substrate asks,
    :meth:`~repro.core.Scheduler.stepper`: homogeneous requests served
    round-robin in ``order`` (default ``0..workers-1``) until the
    scheduler runs dry.  Returns the set of cut points ``{start_0,
    stop_0, start_1, ...}``, or None for distributed schemes (their
    sizes depend on runtime ACP reports, so there is no
    substrate-independent reference sequence).  The lockstep kernel
    (:mod:`repro.core.kernel`) is checked against this replay, so the
    replay never runs through it.
    """
    sched = (
        make(scheme, total, workers, **scheme_kwargs)
        if isinstance(scheme, str)
        # Scheduler instances are single-use: replay a private copy so
        # the caller's object (and a second replay) stay pristine.
        else copy.deepcopy(scheme)
    )
    if sched.distributed:
        return None
    step = sched.stepper(lambda _wid: (1.0, 1))
    cuts: set[int] = set()
    served = 0
    dry = 0
    # total + workers is a hard upper bound on request count: every
    # served request covers >= 1 iteration, plus one dry reply each.
    requests = itertools.cycle(range(workers) if order is None else order)
    for wid in itertools.islice(requests, 2 * (total + workers) + 4):
        chunk = step(wid, None)
        if chunk is None:
            # Static schemes run one worker dry while others still
            # hold unclaimed blocks: only stop once everyone is dry.
            dry += 1
            if dry >= workers:
                break
            continue
        dry = 0
        cuts.update(chunk[:2])
        served += chunk[1] - chunk[0]
        if served >= total:
            break
    return frozenset(cuts)


def _check_conformance(
    rows: Sequence[tuple[int, int, int]],
    scheme: str | Scheduler,
    total: int,
    report: AuditReport,
    check: str = "policy-conformance",
    what: str = "chunk boundaries",
    workers: Optional[int] = None,
    base: int = 0,
    **scheme_kwargs,
) -> None:
    """Cut points inside ``[base, base + total)`` must equal one pure
    replay's, shifted by ``base``; records ``check`` (once per report)
    when the scheme admits the check.

    Requeued intervals are reassigned *verbatim* on every substrate, so
    a fault plan may reorder chunks across workers but never move a cut
    point -- for schemes whose boundaries are a pure function of the
    remaining count.  ``Scheduler.order_invariant`` says which those
    are, read from the class for an instance and from the registry for
    a name.  The rest (WF's weights, the per-PE stage ladders of
    FSS/FISS/TFSS, the ACP-driven family, ``adaptive:``) have no
    substrate-independent reference sequence and are skipped.
    ``workers`` defaults to the highest worker id in ``rows`` plus one.
    """
    if isinstance(scheme, str):
        cls = _registry.SCHEMES.get(_registry.parse(scheme)[0])
    else:
        cls = type(scheme)
    if cls is None or not cls.order_invariant:
        return
    if check not in report.checks:
        report.checks.append(check)
    if workers is None:
        workers = max((worker for worker, _s, _e in rows), default=0) + 1
    expected = frozenset(
        base + pt
        for pt in replay_cut_points(scheme, total, workers, **scheme_kwargs)
    )
    traced = frozenset(
        pt
        for _w, start, stop in rows
        if base <= start and stop <= base + total
        for pt in (start, stop)
    )
    if traced != expected:
        name = scheme if isinstance(scheme, str) else scheme.name
        report.violations.append(
            f"{what} diverge from the pure {name} replay (unexpected "
            f"cuts {sorted(traced - expected)[:8]}, missing cuts "
            f"{sorted(expected - traced)[:8]})"
        )


def audit_sim(
    result,
    total: Optional[int] = None,
    scheme: Optional[str | Scheduler] = None,
    max_acp: Optional[int] = None,
    **scheme_kwargs,
) -> AuditReport:
    """Audit a :class:`~repro.simulation.SimResult` trace.

    ``total`` defaults to the iteration count implied by the trace
    itself (pass it explicitly to also catch whole-trace truncation).
    ``scheme`` (a registry name or fresh :class:`Scheduler`) enables
    the policy-conformance replay; ``max_acp`` bounds reported ACPs
    (e.g. ``acp_model.scale * max(virtual_powers)``).
    """
    report = AuditReport(subject=f"SimResult[{result.scheme}]")
    rows = _rows(result)
    total = _check_coverage(rows, total, report)

    report.checks.append("event-times")
    last_end: dict[int, float] = {}
    for rec in sorted(result.chunks, key=lambda r: (r.assigned_at, r.start)):
        if rec.assigned_at < -_EPS or rec.completed_at < rec.assigned_at - _EPS:
            report.violations.append(
                f"chunk [{rec.start}, {rec.stop}) has non-causal times "
                f"assigned={rec.assigned_at:.6f} "
                f"completed={rec.completed_at:.6f}"
            )
        prev = last_end.get(rec.worker)
        if prev is not None and rec.assigned_at < prev - _EPS:
            report.violations.append(
                f"worker {rec.worker} chunks overlap in time: "
                f"[{rec.start}, {rec.stop}) assigned at "
                f"{rec.assigned_at:.6f} before previous completion "
                f"{prev:.6f}"
            )
        last_end[rec.worker] = rec.completed_at
    if result.chunks:
        report.checks.append("t_p-bound")
        last = max(rec.completed_at for rec in result.chunks)
        if result.t_p < last - _EPS:
            report.violations.append(
                f"T_p={result.t_p:.6f} earlier than last chunk "
                f"completion {last:.6f}"
            )

    report.checks.append("metrics-agreement")
    by_worker: dict[int, list] = {}
    for rec in result.chunks:
        by_worker.setdefault(rec.worker, []).append(rec)
    for idx, w in enumerate(result.workers):
        recs = by_worker.get(idx, [])
        iters = sum(r.stop - r.start for r in recs)
        if w.chunks != len(recs) or w.iterations != iters:
            report.violations.append(
                f"worker {idx} ({w.name}) metrics disagree with trace: "
                f"counters say {w.chunks} chunks/{w.iterations} iters, "
                f"trace says {len(recs)}/{iters}"
            )
    stray = sorted(set(by_worker) - set(range(len(result.workers))))
    if stray:
        report.violations.append(
            f"trace references unknown worker index(es) {stray}"
        )

    acped = [rec for rec in result.chunks if rec.acp is not None]
    if acped:
        report.checks.append("acp-bounds")
    for rec in acped:
        if rec.acp < 1 or (max_acp is not None and rec.acp > max_acp):
            report.violations.append(
                f"chunk [{rec.start}, {rec.stop}) carries ACP "
                f"{rec.acp} outside [1, {max_acp or 'inf'}]"
            )

    if result.results is not None:
        _check_result_length(result.results, total, report)

    if scheme is not None and report.ok:
        _check_conformance(
            rows, scheme, total, report, workers=len(result.workers),
            **scheme_kwargs,
        )
    return report


def audit_run(
    run,
    total: Optional[int] = None,
    scheme: Optional[str | Scheduler] = None,
    workload=None,
    workers: Optional[int] = None,
    **scheme_kwargs,
) -> AuditReport:
    """Audit a runtime :class:`~repro.runtime.RunResult` (or
    :class:`~repro.runtime.MasterResult`), or a bare ``(worker, start,
    stop)`` chunk log.

    ``workload`` additionally checks the reassembled results bit for
    bit against ``workload.execute_serial()`` -- the runtime's core
    correctness property, fault plan or not.
    """
    name = getattr(run, "scheme", None) or "runtime"
    report = AuditReport(subject=f"RunResult[{name}]")
    rows = _rows(run)
    if total is None and workload is not None:
        total = workload.size
    total = _check_coverage(rows, total, report)

    results = getattr(run, "results", None)
    if results is not None and workload is not None:
        report.checks.append("results-vs-serial")
        expected = np.asarray(workload.execute_serial())
        got = np.asarray(results)
        if got.shape != expected.shape or not np.array_equal(got, expected):
            report.violations.append(
                "reassembled results differ from the serial execution "
                f"(shapes {got.shape} vs {expected.shape})"
            )
    elif results is not None:
        _check_result_length(results, total, report)

    if scheme is not None and report.ok:
        _check_conformance(
            rows, scheme, total, report, workers=workers, **scheme_kwargs
        )
    return report


def audit_adaptive(
    trace,
    decisions,
    total: Optional[int] = None,
    workers: Optional[int] = None,
) -> AuditReport:
    """Audit an adaptive run against its own decision log.

    ``trace`` is a :class:`~repro.simulation.SimResult`, a runtime
    result (``.chunks`` of ``(worker, start, stop)``), or a bare triple
    list; ``decisions`` is an
    :class:`~repro.adaptive.AdaptiveScheduler` (its ``decisions`` log
    is read) or the :class:`~repro.adaptive.StageDecision` list itself.

    Checks, on top of the exactly-once core:

    * **stage-tiling** -- the ``select`` decisions partition
      ``[0, total)``: consecutive stage windows abut and cover the
      loop, so no switch ever skipped or re-issued an iteration;
    * **stage-alignment** -- every executed chunk lies inside exactly
      one stage window (a chunk crossing a switch point would mean the
      sub-scheduler escaped its stage);
    * **stage-conformance** -- the policy-conformance step run on each
      stage window: for stages whose scheme is order-invariant, the
      traced cut points inside the window equal a pure replay of that
      stage's scheme and recorded parameters, shifted to the stage
      base.  Stages running request-order-dependent schemes
      (FSS/FISS/TFSS/WF ladders) are skipped, like the fixed-scheme
      audits skip them.
    """
    decs = list(getattr(decisions, "decisions", decisions))
    selects = sorted(
        (d for d in decs if d.kind == "select"), key=lambda d: d.stage
    )
    rows = _rows(trace)
    report = AuditReport(subject=f"adaptive[{len(selects)} stages]")
    total = _check_coverage(rows, total, report)

    report.checks.append("stage-tiling")
    cursor = 0
    for d in selects:
        if d.base != cursor:
            report.violations.append(
                f"stage {d.stage} opens at {d.base}, expected {cursor} "
                f"(stages must abut)"
            )
        cursor = d.base + d.size
    if selects and cursor != total:
        report.violations.append(
            f"stages cover [0, {cursor}) but the loop has {total} "
            f"iterations"
        )

    report.checks.append("stage-alignment")
    bounds = sorted((d.base, d.base + d.size) for d in selects)
    for _w, start, stop in rows:
        if not any(b <= start and stop <= e for b, e in bounds):
            report.violations.append(
                f"chunk [{start}, {stop}) crosses a stage boundary"
            )
    if not report.ok:
        return report

    for d in selects:
        _check_conformance(
            rows, d.scheme, d.size, report, check="stage-conformance",
            what=f"stage {d.stage} boundaries", workers=workers,
            base=d.base, **d.params,
        )
    return report


def audit_events(
    events: Iterable,
    total: Optional[int] = None,
    scheme: Optional[str | Scheduler] = None,
    workers: Optional[int] = None,
    subject: str = "events",
    **scheme_kwargs,
) -> AuditReport:
    """Audit a unified observability stream (see :mod:`repro.obs`).

    ``events`` is any iterable of :class:`~repro.obs.ObsEvent` (or
    their ``to_dict`` forms, e.g. straight from
    :func:`~repro.obs.read_jsonl`) -- a :class:`~repro.obs.capture`
    buffer, a merged trace file, anything.  The audit needs nothing
    else: the ``result`` events alone carry the exactly-once ledger,
    so the same coverage / sanity / policy-conformance steps that
    :func:`audit_sim` and :func:`audit_run` apply to native result
    objects run here on the trace every substrate emits.

    Checks, in order: every event satisfies the :mod:`repro.obs`
    schema; ``result`` intervals tile ``[0, total)`` exactly once;
    per-worker ``result`` event times are non-decreasing within each
    event source (time bases differ *across* sources, so only
    within-source order is meaningful); and, with ``scheme``, the cut
    points match a pure scheduler replay.
    """
    report = AuditReport(subject=subject)
    evs: list[ObsEvent] = []
    report.checks.append("schema")
    for ev in events:
        if not isinstance(ev, ObsEvent):
            try:
                ev = ObsEvent.from_dict(ev)
            except SchemaError as exc:
                if len(report.violations) < 5:
                    report.violations.append(f"undecodable event: {exc}")
                continue
        try:
            validate_event(ev)
        except SchemaError as exc:
            if len(report.violations) < 5:
                report.violations.append(str(exc))
            continue
        evs.append(ev)
    if report.violations:
        return report

    results = [e for e in evs if e.kind == "result"]
    rows = [(e.worker, e.start, e.stop) for e in results]
    total = _check_coverage(rows, total, report)

    report.checks.append("event-times")
    last_t: dict[tuple[str, int], float] = {}
    for ev in results:
        if ev.t < -_EPS:
            report.violations.append(
                f"result [{ev.start}, {ev.stop}) carries negative "
                f"time t={ev.t:.6f}"
            )
        if ev.source not in _MONOTONE_SOURCES:
            # Worker-process clocks restart from zero on a chaos
            # respawn, so cross-incarnation order is not meaningful.
            continue
        key = (ev.source, ev.worker)
        prev = last_t.get(key)
        if prev is not None and ev.t < prev - _EPS:
            report.violations.append(
                f"{ev.source} worker {ev.worker} result times regress: "
                f"[{ev.start}, {ev.stop}) at t={ev.t:.6f} after "
                f"t={prev:.6f}"
            )
        last_t[key] = ev.t

    if scheme is not None and report.ok:
        if workers is None:
            # Infer from *every* event, not just results: a fast worker
            # can drain the whole loop before its peers claim anything,
            # but the idle peers still emit request/heartbeat/acp
            # events, and TSS-family ladders depend on the true count.
            workers = max(
                (e.worker for e in evs if e.worker >= 0), default=0
            ) + 1
        _check_conformance(
            rows, scheme, total, report, workers=workers, **scheme_kwargs
        )
    return report


def audit_service_log(
    log: Iterable[dict],
    subject: str = "service-log",
) -> AuditReport:
    """Audit a service job ledger (:attr:`repro.service.WorkerPool.log`).

    The ledger records every job state transition the shared pool made
    (``submit`` / ``assign`` / ``requeue`` / ``worker-death`` /
    ``stale-result`` / ``result`` / ``error``); this audit proves the
    service's delivery contract from it:

    * **exactly-once delivery** -- every submitted job has exactly one
      terminal entry (``result`` or ``error``); duplicated results
      from stale incarnations must appear as ``stale-result``, never
      as a second ``result``;
    * **incarnation freshness** -- a terminal ``result`` carries the
      worker slot *and* incarnation of that job's most recent
      ``assign``: a result accepted from an incarnation the job was
      not currently assigned to is a double-execution hazard;
    * **requeue accounting** -- a terminal job was assigned exactly
      ``requeues + 1`` times (every death-triggered requeue led to
      exactly one fresh assignment);
    * **tenant isolation** -- all entries for one job id carry one
      tenant;
    * **ordering** -- per job: ``submit`` first, every ``assign``
      after it, and nothing after the terminal entry except
      ``stale-result`` drops.
    """
    report = AuditReport(subject=subject)
    entries = list(log)
    by_job: dict[str, list[dict]] = {}
    report.checks.append("ledger-shape")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "ev" not in entry \
                or "job" not in entry:
            if len(report.violations) < 5:
                report.violations.append(
                    f"ledger entry {i} is not a job transition: "
                    f"{entry!r}"
                )
            continue
        by_job.setdefault(entry["job"], []).append(entry)
    if report.violations:
        return report

    report.checks.append("exactly-once")
    report.checks.append("incarnation-freshness")
    report.checks.append("requeue-accounting")
    report.checks.append("tenant-isolation")
    report.checks.append("ordering")
    for job_id, seq in by_job.items():
        kinds = [e["ev"] for e in seq]
        tenants = {e.get("tenant") for e in seq}
        if len(tenants) > 1:
            report.violations.append(
                f"job {job_id} crosses tenants: {sorted(map(str, tenants))}"
            )
        if kinds.count("submit") != 1:
            report.violations.append(
                f"job {job_id} has {kinds.count('submit')} submit "
                f"entries (want exactly 1)"
            )
        elif kinds[0] != "submit":
            report.violations.append(
                f"job {job_id} log starts with {kinds[0]!r}, not "
                f"'submit'"
            )
        terminals = [e for e in seq if e["ev"] in ("result", "error")]
        if len(terminals) > 1:
            report.violations.append(
                f"job {job_id} delivered {len(terminals)} terminal "
                f"entries -- exactly-once violated"
            )
        elif not terminals:
            report.violations.append(
                f"job {job_id} never reached a terminal state"
            )
        if terminals:
            term_idx = seq.index(terminals[0])
            trailing = [
                e["ev"] for e in seq[term_idx + 1:]
                if e["ev"] != "stale-result"
            ]
            if trailing:
                report.violations.append(
                    f"job {job_id} has transitions after its terminal "
                    f"entry: {trailing}"
                )
        assigns = [e for e in seq if e["ev"] == "assign"]
        requeues = kinds.count("requeue")
        if terminals:
            term = terminals[0]
            if term["ev"] == "result":
                if not assigns:
                    report.violations.append(
                        f"job {job_id} has a result but was never "
                        f"assigned"
                    )
                else:
                    last = assigns[-1]
                    if (term.get("worker"), term.get("incarnation")) != (
                        last.get("worker"), last.get("incarnation")
                    ):
                        report.violations.append(
                            f"job {job_id} result came from "
                            f"worker={term.get('worker')} "
                            f"inc={term.get('incarnation')} but was "
                            f"assigned to worker={last.get('worker')} "
                            f"inc={last.get('incarnation')} -- stale "
                            f"incarnation accepted"
                        )
            if assigns and len(assigns) != requeues + 1:
                report.violations.append(
                    f"job {job_id} was assigned {len(assigns)} times "
                    f"for {requeues} requeue(s) (want requeues + 1)"
                )
        for e in seq:
            if e["ev"] == "worker-death" and "requeue" not in kinds \
                    and not terminals:
                report.violations.append(
                    f"job {job_id} lost its worker but was neither "
                    f"requeued nor failed"
                )
                break
    return report


def audit_subscription(
    frames: Iterable[dict],
    trace: Optional[Iterable] = None,
    complete: bool = False,
    subject: str = "subscription",
) -> AuditReport:
    """Audit a live-telemetry subscription's pushed frames.

    ``frames`` is the sequence of ``{"watch": ...}`` documents a
    subscriber read off one connection (what
    :meth:`repro.service.ServiceClient.watch` yields).  The audit
    proves the streaming contract:

    * **frame shape** -- every frame is an ``events`` or ``end``
      document carrying an integer sequence number ``n`` and a
      cumulative ``drops`` counter;
    * **gapless sequencing** -- ``n`` starts at 1 and increments by
      exactly 1 per frame: a missing or reordered frame is visible as
      a gap, independent of its payload;
    * **drop accounting** -- ``drops`` never decreases (it is the
      *cumulative* count of events the daemon shed to protect the
      pool from a slow subscriber);
    * **termination** -- at most one ``end`` frame, and only as the
      final frame;
    * **fidelity** (when ``trace`` is given) -- every streamed event
      also appears in the server-side tenant trace: streaming is a
      tap, never a second source of truth.  With ``complete=True``
      (a subscription that covered the whole run, ``drops == 0``)
      the two multisets must be *equal*, so the subscriber holds a
      bit-identical copy of the ledger-consistent trace.
    """
    report = AuditReport(subject=subject)
    docs = list(frames)

    report.checks.append("frame-shape")
    for i, frame in enumerate(docs):
        if not isinstance(frame, dict) \
                or frame.get("watch") not in ("events", "end") \
                or not isinstance(frame.get("n"), int) \
                or not isinstance(frame.get("drops"), int):
            if len(report.violations) < 5:
                report.violations.append(
                    f"frame {i} is not a stream document: {frame!r}"
                )
    if report.violations:
        return report

    report.checks.append("sequence")
    for i, frame in enumerate(docs):
        if frame["n"] != i + 1:
            report.violations.append(
                f"frame {i} carries n={frame['n']} (want {i + 1}) -- "
                f"gap or reorder"
            )
            break

    report.checks.append("drop-accounting")
    last_drops = 0
    for i, frame in enumerate(docs):
        if frame["drops"] < last_drops:
            report.violations.append(
                f"frame {i} drops={frame['drops']} < previous "
                f"{last_drops} -- cumulative counter went backwards"
            )
            break
        last_drops = frame["drops"]

    report.checks.append("termination")
    ends = [i for i, f in enumerate(docs) if f["watch"] == "end"]
    if len(ends) > 1:
        report.violations.append(
            f"{len(ends)} end frames (want at most 1)"
        )
    elif ends and ends[0] != len(docs) - 1:
        report.violations.append(
            f"end frame at index {ends[0]} is not the final frame"
        )

    if trace is None:
        return report

    def _normalize(ev) -> str:
        if not isinstance(ev, ObsEvent):
            ev = ObsEvent.from_dict(ev)
        return event_line(ev)

    streamed: dict[str, int] = {}
    for frame in docs:
        for ev in frame.get("events", ()):
            key = _normalize(ev)
            streamed[key] = streamed.get(key, 0) + 1
    recorded: dict[str, int] = {}
    for ev in trace:
        key = _normalize(ev)
        recorded[key] = recorded.get(key, 0) + 1

    report.checks.append("fidelity")
    for key, count in streamed.items():
        if count > recorded.get(key, 0):
            report.violations.append(
                f"streamed event not in (or exceeding) the server "
                f"trace: {key}"
            )
            if sum(
                1 for v in report.violations
                if v.startswith("streamed event")
            ) >= 5:
                break

    if complete:
        report.checks.append("completeness")
        if last_drops:
            report.violations.append(
                f"complete subscription audit with drops={last_drops} "
                f"-- a lossy stream cannot be complete"
            )
        missing = sum(
            count - streamed.get(key, 0)
            for key, count in recorded.items()
            if count > streamed.get(key, 0)
        )
        if missing:
            report.violations.append(
                f"{missing} trace event(s) never reached the "
                f"subscriber despite drops=0"
            )
    return report
