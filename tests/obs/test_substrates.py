"""Every substrate emits schema-valid events for the full lifecycle."""

from __future__ import annotations

import pytest

from repro.decentral import run_decentral, simulate_decentral
from repro.obs import (
    LIFECYCLE_KINDS,
    Collector,
    ObsEvent,
    capture,
    validate_event,
)
from repro.runtime import run_parallel
from repro.simulation import ClusterSpec, NodeSpec, simulate, simulate_tree
from repro.verify import audit_events
from repro.workloads import UniformWorkload

WL = UniformWorkload(size=120, unit=1e-5)


def _cluster(n=3):
    return ClusterSpec(
        nodes=[NodeSpec(name=f"n{i}", speed=100.0) for i in range(n)]
    )


def _check(events, sources, lifecycle=LIFECYCLE_KINDS):
    assert events, "substrate emitted no events"
    for ev in events:
        validate_event(ev)
    seen_sources = {e.source for e in events}
    assert seen_sources <= sources, seen_sources
    kinds = {e.kind for e in events}
    assert lifecycle <= kinds, f"missing lifecycle kinds: {lifecycle - kinds}"


def test_sim_master_emits_lifecycle():
    with capture() as trace:
        simulate("TSS", WL, _cluster(), collector=trace)
    _check(trace.events, {"sim.master"})
    audit_events(trace.events, total=WL.size, scheme="TSS",
                 workers=3).raise_if_failed()


def test_sim_master_disabled_by_default():
    result = simulate("TSS", WL, _cluster())
    assert result.obs_events is None


def test_sim_tree_emits_lifecycle():
    with capture() as trace:
        simulate_tree(WL, _cluster(), collector=trace)
    # TreeS has no request/assign dialogue: compute + result + steal
    _check(trace.events, {"sim.tree"}, lifecycle={"compute", "result"})
    audit_events(trace.events, total=WL.size).raise_if_failed()


def test_sim_decentral_emits_lifecycle():
    with capture() as trace:
        simulate_decentral("TSS", WL, _cluster(), collector=trace)
    _check(trace.events, {"sim.decentral"})
    assert any(e.kind == "fetch-add" for e in trace.events)
    audit_events(trace.events, total=WL.size, scheme="TSS",
                 workers=3).raise_if_failed()


def test_runtime_master_and_workers_emit_lifecycle():
    with capture() as trace:
        run = run_parallel("TSS", WL, 2, collector=trace)
    assert run.results is not None
    _check(trace.events, {"runtime.master", "runtime.worker"})
    by_source = {}
    for ev in trace.events:
        by_source.setdefault(ev.source, set()).add(ev.kind)
    # the master owns the dispatch ledger, workers the compute spans
    assert {"request", "assign", "result",
            "terminate"} <= by_source["runtime.master"]
    assert "compute" in by_source["runtime.worker"]
    # real-runtime events carry absolute wall-clock time
    assert all(e.wall is not None for e in trace.events)
    audit_events(trace.events, total=WL.size, scheme="TSS",
                 workers=2).raise_if_failed()


def test_runtime_decentral_emits_lifecycle():
    with capture() as trace:
        run = run_decentral("TSS", WL, 2, collector=trace)
    assert run.results is not None
    _check(
        trace.events, {"runtime.decentral"},
        lifecycle={"request", "compute", "result"},
    )
    assert any(e.kind == "fetch-add" for e in trace.events)
    audit_events(trace.events, total=WL.size, scheme="TSS",
                 workers=2).raise_if_failed()


SIM_RUNNERS = pytest.mark.parametrize("runner", [
    lambda c: simulate("GSS", WL, _cluster(), collector=c),
    lambda c: simulate_tree(WL, _cluster(), collector=c),
    lambda c: simulate_decentral("GSS", WL, _cluster(), collector=c),
])


@SIM_RUNNERS
def test_every_sim_event_validates(runner):
    with capture() as trace:
        runner(trace)
    for ev in trace.events:
        validate_event(ev)
        assert type(ev) is ObsEvent


@SIM_RUNNERS
def test_a_custom_collector_gets_every_event_through_its_emit(runner):
    """What a collector that is not a plain buffer is guaranteed: the
    engines call *its* ``emit``, once per event, in stream order."""

    class Recording(Collector):
        def __init__(self):
            self.seen = []

        def emit(self, event):
            self.seen.append(event)

    custom = Recording()
    runner(custom)
    with capture() as trace:
        runner(trace)
    assert custom.seen == trace.events
