"""Every substrate emits schema-valid events for the full lifecycle,
and a run with a falsy collector pays a pinned number of truth tests
per chunk on each simulation engine and builds no event."""

from __future__ import annotations

import pytest

from repro.decentral import (
    DecentralSimulation,
    run_decentral,
    simulate_decentral,
)
from repro.obs import (
    LIFECYCLE_KINDS,
    Collector,
    ObsEvent,
    capture,
    validate_event,
)
from repro.runtime import run_parallel
from repro.simulation import (
    ClusterSpec,
    MasterSlaveSimulation,
    NodeSpec,
    TreeSimulation,
    simulate,
    simulate_tree,
)
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


# -- the disabled path: one truth test per would-be event -------------------

#: Big enough that per-worker events (a last request, a terminate) are
#: a small fraction of the per-chunk ones.
BIG = UniformWorkload(size=4000, unit=1e-6)

#: engine -> run(collector) on ``BIG``.  ``fast=False`` pins the DES:
#: the fast path refuses a run with a collector, so the engine that runs
#: in both modes is the one whose gates are counted.
ENGINES = {
    "master": lambda c: simulate("TSS", BIG, _cluster(4), collector=c,
                                 fast=False),
    "decentral": lambda c: simulate_decentral("TSS", BIG, _cluster(4),
                                              collector=c, fast=False),
    "tree": lambda c: simulate_tree(BIG, _cluster(4), weighted=True,
                                    grain=4, collector=c),
}

#: Events a computed chunk costs, as each engine declares them (the
#: fast path counts the trace it does not emit with the same numbers):
#: request, assign, compute, result on the master (768 over 190
#: chunks); a fetch-add on top of those on the decentral counter (962 /
#: 190); compute and result on a TreeS block (2004 / 1000).  A new
#: per-chunk emission site adds one and fails.
GATES_PER_CHUNK = {
    "master": MasterSlaveSimulation.TRACE_PER_CHUNK,
    "decentral": DecentralSimulation.TRACE_PER_CHUNK,
    "tree": TreeSimulation.TRACE_PER_CHUNK,
}


class _Disabled(Collector):
    """Falsy like the ``NullCollector``; an event reaching it is a bug."""

    def __bool__(self):
        return False

    def emit(self, event):
        raise AssertionError(f"ungated emission site: {event!r}")


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_disabled_path_constructs_no_events(engine):
    ENGINES[engine](_Disabled())  # an ungated site raises out of the run


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_gates_per_computed_chunk_are_pinned(engine):
    """A disabled run pays one truth test per event a truthy collector
    gets: counted here, because a gate count is a property of the code
    and its nanoseconds are a property of the host."""
    with capture() as trace:
        chunks = len(ENGINES[engine](trace).chunks)
    per_chunk = len(trace.events) / chunks
    budget = GATES_PER_CHUNK[engine]
    assert budget <= per_chunk < budget + 0.5, (engine, per_chunk)
