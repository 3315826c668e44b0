"""Metrics registry and event-derived catalog tests."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ObsEvent,
    metrics_from_events,
)


def test_counter_only_goes_up():
    c = Counter("n")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_moves_both_ways():
    g = Gauge("g")
    g.set(3)
    g.inc()
    g.dec(2)
    assert g.value == 2


def test_histogram_quantiles_and_snapshot():
    h = Histogram("h", buckets=(1.0, 10.0, 100.0))
    for v in (0.5, 2.0, 5.0, 50.0):
        h.observe(v)
    snap = h.snapshot()
    assert snap["count"] == 4
    assert snap["min"] == 0.5 and snap["max"] == 50.0
    assert h.mean == pytest.approx(14.375)
    assert h.quantile(0.0) <= h.quantile(1.0)


def test_quantile_extremes_are_observed_min_and_max():
    # q=0 used to return the first bucket bound regardless of data
    # (seen >= target is trivially true when target == 0).
    h = Histogram("h", buckets=(1.0, 10.0, 100.0))
    for v in (7.0, 42.0, 63.0):
        h.observe(v)
    assert h.quantile(0.0) == 7.0
    assert h.quantile(1.0) == 63.0


def test_quantile_single_observation():
    h = Histogram("h", buckets=(1.0, 10.0, 100.0))
    h.observe(42.0)
    assert h.quantile(0.0) == 42.0
    assert h.quantile(0.5) == 100.0  # bucket upper bound (approx mid)
    assert h.quantile(1.0) == 42.0


def test_quantile_empty_and_out_of_range():
    h = Histogram("h", buckets=(1.0,))
    assert h.quantile(0.0) == 0.0
    assert h.quantile(1.0) == 0.0
    with pytest.raises(ValueError):
        h.quantile(1.5)
    with pytest.raises(ValueError):
        h.quantile(-0.1)


def test_registry_get_or_create_and_type_clash():
    reg = MetricsRegistry()
    assert reg.counter("x") is reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")
    assert json.loads(reg.to_json())["x"]["type"] == "counter"


def test_metrics_from_events_catalog():
    events = [
        ObsEvent("request", "sim.master", 0.0, worker=0),
        ObsEvent("assign", "sim.master", 0.25, worker=0, start=0, stop=10),
        ObsEvent("compute", "sim.master", 0.25, worker=0, start=0,
                 stop=10, value=1.0),
        ObsEvent("result", "sim.master", 1.25, worker=0, start=0, stop=10),
        ObsEvent("heartbeat", "runtime.worker", 0.5, worker=1),
        ObsEvent("fetch-add", "runtime.decentral", 0.1, worker=1,
                 value=0.02, detail="global"),
        ObsEvent("fetch-add", "runtime.decentral", 0.2, worker=1,
                 value=0.0, detail="local"),
        ObsEvent("fault", "chaos", 0.3, worker=1, detail="death"),
        ObsEvent("fault", "runtime.master", 0.4, worker=1,
                 detail="deadline"),
        ObsEvent("restart", "chaos", 0.5, worker=1),
        ObsEvent("steal", "sim.tree", 0.6, worker=2, start=10, stop=12),
        ObsEvent("repair", "runtime.decentral", 0.7, worker=-1,
                 start=12, stop=14),
    ]
    snap = metrics_from_events(events).snapshot()
    assert snap["chunks_total"]["value"] == 1
    assert snap["iterations_total"]["value"] == 10
    assert snap["results_total"]["value"] == 1
    assert snap["heartbeats_total"]["value"] == 1
    assert snap["counter_ops_global"]["value"] == 1
    assert snap["counter_ops_local"]["value"] == 1
    assert snap["faults_total"]["value"] == 2
    assert snap["faults_death"]["value"] == 1
    assert snap["heartbeat_misses"]["value"] == 1
    assert snap["restarts_total"]["value"] == 1
    assert snap["steals_total"]["value"] == 1
    assert snap["repairs_total"]["value"] == 1
    assert snap["workers"]["value"] == 3
    assert snap["chunk_size"]["count"] == 1
    assert snap["dispatch_latency"]["count"] == 1
    # the whole snapshot serializes (the per-run JSON artifact)
    assert json.loads(json.dumps(snap)) == snap
