"""The steppers against their ``next_chunk`` twin.

Every substrate asks through ``Scheduler.stepper()``.  A scheme that
states ``_nominal`` gets the formula closure -- no ``WorkerView``, no
``ChunkAssignment`` -- an ACP-driven scheduler (DTSS, DFSS, DFISS,
DTFSS) steps itself through the family's ``step(wid, acp)``, and the
adaptive meta-scheduler drives its current stage's sub-scheduler
through that scheduler's own stepper.  ``next_chunk`` is the object
protocol's adapter over the same stepper: a twin asked through it, in
the request order a simulated run recorded, must be left in the same
state (the adaptive policy's decisions and sub-scheduler included) --
on the DES, under a fault plan, and on the fast path.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import FaultPlan
from repro.core import WorkerView, drain, make, names
from repro.obs import BufferedCollector
from repro.simulation import (
    ClusterSpec,
    ConstantLoad,
    NodeSpec,
    RandomLoad,
    SimulationError,
    simulate,
)
from repro.simulation.engine import make_for_cluster
from repro.workloads import GaussianPeakWorkload

LOADS = ("dedicated", "nondedicated", "random")


def cluster_of(p: int, loads: str, seed: int) -> ClusterSpec:
    nodes = []
    for i in range(p):
        if loads == "dedicated":
            load = ConstantLoad(1)
        elif loads == "nondedicated":
            load = ConstantLoad(1 + (i + seed) % 3)
        else:
            load = RandomLoad(seed=seed + i)
        nodes.append(NodeSpec(
            name=f"n{i}", speed=70.0 + 23.0 * i,
            latency=1e-3 * (1 + i % 3), bandwidth=1.0e6 * (1 + i),
            load=load, virtual_power=1.0 + 0.5 * i,
        ))
    return ClusterSpec(nodes=nodes, master_service=2e-4)


def _probe(name: str):
    return make_for_cluster(name, 100, cluster_of(4, "dedicated", 0))


def stepper_of(scheduler):
    return scheduler.stepper(lambda _wid: (1.0, 1))


#: Registry schemes whose stepper is their formula closure.
PURE = [n for n in names()
        if getattr(stepper_of(_probe(n)), "formula", False)]
def _steps_itself(scheduler) -> bool:
    return stepper_of(scheduler) == getattr(scheduler, "step", None)


#: Registry schemes that step themselves: the ACP family's ``step``.
FAMILY = [n for n in names() if _steps_itself(_probe(n))]
#: Adaptive specs: single and multi-candidate, with and without a
#: stage count.
ADAPTIVE = ["adaptive", "adaptive:TSS+FSS@4", "adaptive:GSS+CSS(8)@6",
            "adaptive:FISS+TFSS+WF+SS"]


def test_every_registry_scheme_has_a_lean_driver():
    assert len(PURE) == 10
    assert {"SS", "CSS", "GSS", "TSS", "FSS", "FISS", "TFSS", "WF"} \
        <= set(PURE)
    assert FAMILY == ["DTSS", "DFSS", "DFISS", "DTFSS"]
    assert set(names()) - set(PURE) - set(FAMILY) == {"ADAPTIVE"}
    for spec in ADAPTIVE:
        step = stepper_of(_probe(spec))
        assert step.__qualname__.startswith("AdaptiveScheduler.")
    # The fast path still refuses the adaptive policy.
    assert _probe("ADAPTIVE").feedback_dependent


def facts(result, trace):
    return (
        result.scheme, result.t_p, result.events, result.rederivations,
        result.chunks.rows(),
        [dataclasses.astuple(w) for w in result.workers],
        None if trace is None else list(trace.events),
    )


def outcome(scheduler, workload, cluster, observed=True, **kwargs):
    trace = BufferedCollector() if observed else None
    try:
        result = simulate(scheduler, workload, cluster, collector=trace,
                          **kwargs)
    except SimulationError as exc:  # a plan may strand the loop
        return ("error", type(exc), str(exc))
    return facts(result, trace)


#: The family's own state, beside the loop state every scheme has.
FAMILY_STATE = ("_acps", "rederivations", "total_acp", "_served_acp",
                "_worker_stage", "_stage_totals", "params")


def adaptive_state(scheduler):
    """The policy's decisions, what it learned, and its current
    sub-scheduler's loop state (None for a fixed scheme)."""
    if not hasattr(scheduler, "decisions"):
        return None
    sub = scheduler._sub
    return (
        scheduler.decisions, scheduler._speeds, scheduler._stage_count,
        [(r.base, r.size, r.arm, r.spans) for r in scheduler._records],
        scheduler._bandit.counts, scheduler._bandit.sums,
        None if sub is None else loop_state(sub),
    )


def loop_state(scheduler):
    return (
        scheduler._cursor, scheduler._step, scheduler._requests,
        scheduler._stage, scheduler.finished, scheduler.steps_taken,
        scheduler.remaining,
    ) + tuple(getattr(scheduler, attr, None) for attr in FAMILY_STATE) + (
        adaptive_state(scheduler),
    )


def asked_in_order(trace, total):
    """The workers whose requests reached the scheduler, in order: the
    scheduler hands out ``[0, total)`` front to back, so an assignment
    starting at the running cursor is one it sized (anything else is a
    requeued interval, sized before)."""
    cursor, workers = 0, []
    for ev in trace:
        if ev.kind == "assign" and ev.start == cursor:
            workers.append(ev.worker)
            cursor = ev.stop
    assert cursor == total
    return workers


def logged(scheduler):
    """Record what a family scheduler is told, in order: every stepped
    request (with its answer) and every out-of-band report.  Shadows
    ``step`` and ``observe_acp`` on the instance; the family's
    ``stepper`` returns ``self.step``, so the shadow is what it asks."""
    log = []
    step, observe = scheduler.step, scheduler.observe_acp

    def stepped(wid, acp):
        got = step(wid, acp)
        log.append(("ask", wid, acp, got))
        return got

    def observed(wid, acp):
        log.append(("observe", wid, acp, None))
        observe(wid, acp)

    scheduler.step = stepped
    scheduler.observe_acp = observed
    assert stepper_of(scheduler) is stepped
    return log


def replay(twin, log):
    """Tell ``twin`` what ``log`` recorded, asking through
    ``next_chunk``; every answer must be the stepper's."""
    for kind, wid, acp, got in log:
        if kind == "observe":
            twin.observe_acp(wid, acp)
            continue
        chunk = twin.next_chunk(WorkerView(worker_id=wid, acp=acp))
        assert got == (
            None if chunk is None else (chunk.start, chunk.stop, chunk.stage)
        )


def check_indistinguishable(name, p, loads, seed, size, chaos):
    cluster = cluster_of(p, loads, seed)
    workload = GaussianPeakWorkload(size, amplitude=5.0)

    def fresh():
        return make_for_cluster(name, size, cluster)

    powers = cluster.virtual_powers()

    plan = None
    if chaos:
        horizon = simulate(fresh(), workload, cluster).t_p
        plan = FaultPlan.random(seed, workers=p,
                                horizon=max(horizon, 0.1))
    driven = fresh()
    family = name in FAMILY
    log = logged(driven) if family else None
    got = outcome(driven, workload, cluster, chaos=plan)
    if got[0] != "error":
        # One stepper call is one next_chunk: the state it leaves is
        # what a next_chunk drain in the same request order leaves.
        twin = fresh()
        twin.bind_workload(workload)
        if family:
            replay(twin, log)
        else:
            for wid in asked_in_order(got[-1], size):
                view = WorkerView(worker_id=wid,
                                  virtual_power=powers[wid])
                assert twin.next_chunk(view) is not None
        assert loop_state(twin) == loop_state(driven)
        assert twin.next_chunk(WorkerView(worker_id=0)) is None
        assert driven.next_chunk(WorkerView(worker_id=0)) is None
    if plan is None and not driven.feedback_dependent:
        # The fast path: its inlined loop for the formula-driven, the
        # stepper for the family; both leave the drained state on the
        # scheduler.  (It refuses the adaptive policy.)
        fast = fresh()
        assert outcome(fast, workload, cluster, observed=False,
                       fast=True) == got[:-1] + (None,)
        assert loop_state(fast) == loop_state(driven)
    return got


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(PURE + FAMILY + ADAPTIVE),
    p=st.sampled_from([1, 2, 4, 8]),
    loads=st.sampled_from(LOADS),
    seed=st.integers(min_value=0, max_value=10_000),
    size=st.integers(min_value=0, max_value=300),
    chaos=st.booleans(),
)
def test_a_driven_run_is_indistinguishable(
    name, p, loads, seed, size, chaos
):
    check_indistinguishable(name, p, loads, seed, size, chaos)


@pytest.mark.parametrize("name, p, seed, size", [
    ("DTSS", 1, 3, 2000), ("DFSS", 3, 1, 300), ("DFISS", 3, 1, 300),
    ("DTFSS", 3, 2, 300),
])
def test_a_rederiving_run_is_indistinguishable(name, p, seed, size):
    """Under ``random`` load the "more than half changed" rule fires
    mid-run; the stepper and ``next_chunk`` must re-derive on the same
    request."""
    got = check_indistinguishable(name, p, "random", seed, size, False)
    assert got[3] > 0  # result.rederivations


@pytest.mark.parametrize("spec", ADAPTIVE)
@pytest.mark.parametrize("loads", LOADS)
def test_an_adaptive_run_is_indistinguishable(spec, loads):
    """Every stage boundary, every decision and every sub-scheduler the
    policy opens, on a heterogeneous cluster and a loop long enough to
    use all its stages."""
    got = check_indistinguishable(spec, 4, loads, 7, 600, False)
    assert [ev.kind for ev in got[-1]].count("adapt") >= 2


@pytest.mark.parametrize("name", FAMILY)
@pytest.mark.parametrize("registered", [False, True])
def test_a_family_request_without_a_report(name, registered):
    """``step(wid, None)`` is what a ``WorkerView`` without an ACP asks
    (the simple protocol): the stored report, or the V=Q=1 default a
    PE that never reported is registered with.  A drain and the
    stepper, round-robin, hand out the same chunks."""
    drained, stepped = make(name, 500, 3), make(name, 500, 3)
    if registered:
        for s in (drained, stepped):
            for wid in range(3):
                s.observe_acp(wid, 10 * (1 + wid))
    step = stepper_of(stepped)
    chunks = [(c.start, c.stop, c.stage) for c in drain(drained)]
    asked = [step(i % 3, None) for i in range(len(chunks) + 1)]
    assert asked == chunks + [None]
    assert loop_state(stepped) == loop_state(drained)


# -- purity is a property of the instance, not only of its class -----------


def _counting(scheduler):
    """Shadow ``stepper`` on the instance; returns the request log."""
    calls = []
    honest = scheduler.stepper

    def wrapper(requester):
        step = honest(requester)

        def counted(wid, acp=None):
            calls.append(wid)
            return step(wid, acp)

        return counted

    scheduler.stepper = wrapper
    return calls


@pytest.mark.parametrize("fast", [False, "auto", True])
def test_an_instance_level_hook_is_never_bypassed(fast):
    """Regression: ``fast="auto"`` judged purity from the class alone
    and ran a wrapped ``CSS(4)`` without ever calling the wrapper."""
    cluster = cluster_of(2, "dedicated", 0)
    workload = GaussianPeakWorkload(40, amplitude=5.0)
    scheduler = make("CSS(4)", 40, 2)
    calls = _counting(scheduler)
    assert not getattr(stepper_of(scheduler), "formula", False)
    result = simulate(scheduler, workload, cluster, fast=fast)
    # Ten chunks, then one dry request per worker.
    assert len(result.chunks) == 10 and len(calls) == 12
    plain = simulate(make("CSS(4)", 40, 2), workload, cluster,
                     fast=fast)
    assert facts(result, None) == facts(plain, None)
