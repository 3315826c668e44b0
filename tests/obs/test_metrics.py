"""Metrics registry tests."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
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
