"""A pool worker's reply body, observed or not, is the one-shot's.

:func:`repro.service.pool._execute_body` runs a job that ships no
trace, and that nobody streams, unobserved: the chassis's one gate
gives it the fast path, or refuses and the job runs observed.  Either
way the bytes it returns equal the body built from the observed
one-shot ``job_from_spec(spec).run()``: the digest from the rows, the
event count from the fast path's ``trace_length``.
"""

from __future__ import annotations

import collections

import pytest

from repro.chaos import FaultPlan, MessageDelay, WorkerDeath
from repro.obs import ObsEvent, stream_digest
from repro.service.jobs import job_from_spec
from repro.service.pool import _execute_body
from repro.simulation import FastPathRefused, fastpath

_LINEAR = {
    "scheme": "TSS",
    "workload": {"kind": "linear", "size": 300, "unit": 1e-4},
    "cluster": {"workers": 3},
}

#: The D-family on a cluster whose first PE sits below ``A_min``
#: (``floor(10 * 0.05 / 1) = 0``): it never asks.
_SCREENED_NODES = [
    {"name": "weak", "speed": 100.0, "virtual_power": 0.05},
    {"name": "a", "speed": 120.0, "virtual_power": 1.0},
    {"name": "b", "speed": 80.0, "virtual_power": 2.0},
]

#: Taken by the gate: run fast and unobserved.
ELIGIBLE = {
    "linear": _LINEAR,
    "linear-results": {**_LINEAR, "results": True},
    "mandelbrot": {
        "scheme": "SS",
        "workload": {"kind": "mandelbrot", "width": 48, "height": 24},
        "cluster": {"workers": 4},
    },
    **{
        f"screened-{scheme}": {
            "scheme": scheme,
            "workload": {"kind": "gaussian-peak", "size": 200},
            "cluster": {"nodes": _SCREENED_NODES},
        }
        for scheme in ("DTSS", "DFSS", "DFISS", "DTFSS")
    },
    "decentral-leased": {
        "scheme": "GSS", "engine": "decentral",
        "workload": {"kind": "uniform", "size": 250},
        "cluster": {"workers": 5},
        "params": {"group_size": 2, "lease": 3},
    },
    "no-result-bytes": {
        **_LINEAR, "cluster": {"workers": 3, "result_bytes_per_item": 0},
    },
}

#: Refused by the gate: run observed.
REFUSED = {
    "chaos": {
        **_LINEAR,
        "chaos": FaultPlan(events=(
            WorkerDeath(worker=1, at=0.02),
            MessageDelay(worker=2, at=0.0, delay=0.01),
        )).to_json(),
    },
    "tree": {**_LINEAR, "engine": "tree"},
    "adaptive": {**_LINEAR, "scheme": "adaptive:TSS+FSS@4"},
    "segment": {
        **_LINEAR,
        "cluster": {"nodes": [
            {"name": f"n{i}", "speed": 100.0, "segment": "hub"}
            for i in range(3)
        ]},
    },
    "pinned-des": {**_LINEAR, "params": {"fast": False}},
}


def one_shot_body(spec: dict) -> bytes:
    """The body from the observed one-shot run of ``spec``."""
    result = job_from_spec(spec).run()
    events = result.obs_events
    return b'{"digest":"%s","events_emitted":%d,"result":%s}' % (
        stream_digest(events).encode("ascii"), len(events),
        result.to_json_bytes(bool(spec.get("results"))),
    )


def _body(spec: dict) -> bytes:
    digest, body = _execute_body(spec, bool(spec.get("results")), False)
    assert digest is not None, body
    return body


@pytest.mark.parametrize("name", sorted(ELIGIBLE) + sorted(REFUSED))
def test_untraced_body_equals_the_one_shot(name):
    spec = {**ELIGIBLE, **REFUSED}[name]
    assert _body(spec) == one_shot_body(spec)


@pytest.mark.parametrize("name", sorted(ELIGIBLE))
def test_kill_switch_runs_observed_with_the_same_bytes(name):
    """A spec that sets ``fast=False`` keeps its policy: the job runs
    observed on the DES, and its bytes are the eligible one-shot's."""
    spec = ELIGIBLE[name]
    pinned = {**spec, "params": {**spec.get("params", {}), "fast": False}}
    assert _body(pinned) == one_shot_body(spec)


def test_a_spec_that_asks_for_fast_keeps_its_policy():
    """``fast=True`` is refused for an observed one-shot job, so the
    daemon fails it too."""
    spec = {**_LINEAR, "params": {"fast": True}}
    with pytest.raises(FastPathRefused) as caught:
        job_from_spec(spec).run()
    assert caught.value.reason == "an observability collector is attached"
    digest, body = _execute_body(spec, False, False)
    assert digest is None
    assert body.decode() == (
        '{"error":"%s: %s"}' % (type(caught.value).__name__,
                                caught.value)
    )


@pytest.mark.parametrize("name", sorted(ELIGIBLE))
def test_an_eligible_untraced_job_builds_no_event(name, monkeypatch):
    """Counted as ``tests/obs/test_eventlist.py`` counts: no
    ``ObsEvent`` is constructed, and the fast path ran."""
    built: collections.Counter = collections.Counter()
    new, make = ObsEvent.__new__, ObsEvent._make

    def counting_new(cls, *args, **kwargs):
        event = new(cls, *args, **kwargs)
        built[event.kind] += 1
        return event

    def counting_make(cls, iterable):
        event = make(iterable)
        built[event.kind] += 1
        return event

    fast_runs = []
    for loop in ("run_fast_master", "run_fast_decentral"):
        real = getattr(fastpath, loop)
        monkeypatch.setattr(
            fastpath, loop,
            lambda sim, real=real: fast_runs.append(sim) or real(sim),
        )
    monkeypatch.setattr(ObsEvent, "__new__", counting_new)
    monkeypatch.setattr(ObsEvent, "_make", classmethod(counting_make))
    _body(ELIGIBLE[name])
    assert not built, built
    assert len(fast_runs) == 1
    assert not fast_runs[0].observing


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_a_refused_job_runs_observed(name, monkeypatch):
    fast_runs = []
    for loop in ("run_fast_master", "run_fast_decentral"):
        monkeypatch.setattr(fastpath, loop, fast_runs.append)
    _body(REFUSED[name])
    assert fast_runs == []


def test_a_traced_job_runs_observed(monkeypatch):
    fast_runs = []
    monkeypatch.setattr(fastpath, "run_fast_master", fast_runs.append)
    digest, body = _execute_body(_LINEAR, False, True)
    assert digest is not None and b'"trace":[' in body
    assert fast_runs == []
