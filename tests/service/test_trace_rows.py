"""A traced ``wait`` reply ships its trace as rows, and the client
reads them as the one-shot run's events.

The pool worker writes one array of the eleven ``ObsEvent`` fields per
event (:func:`~repro.obs.events_json`); :meth:`ServiceClient.wait`
returns them as an :class:`~repro.obs.EventList`.  Across the scheme
registry on every engine, fault-free and under a fault plan, and for a
streamed job, that list is the one-shot ``job_from_spec(spec).run()``
trace event for event, float for float, and its digest is the
reply's.  ``repro-service submit --wait`` still prints one dict per
event.
"""

from __future__ import annotations

import json

from repro.chaos import FaultPlan, MessageDelay, WorkerDeath
from repro.core import registry
from repro.decentral import CALCULATORS
from repro.obs import EventList, ObsEvent, stream_digest
from repro.service import cli
from repro.service.jobs import job_from_spec

from .test_server import _Daemon

_PLAN = FaultPlan(events=(
    WorkerDeath(worker=1, at=0.005),
    MessageDelay(worker=2, at=0.0, delay=0.001),
)).to_json()

def _specs() -> list:
    specs = []
    for engine in ("master", "decentral", "tree"):
        for name in registry.names():
            # Only a pure calculator has a decentral form.
            if engine == "decentral" and name not in CALCULATORS:
                continue
            scheme = "adaptive:TSS+FSS@4" if name == "ADAPTIVE" else name
            spec = {
                "scheme": scheme, "engine": engine,
                "workload": {"kind": "gaussian-peak", "size": 120,
                             "unit": 1e-4},
                "cluster": {"workers": 3},
                "trace": True,
            }
            specs += [spec, dict(spec, chaos=_PLAN)]
    return specs


def _exact(events) -> str:
    """``repr`` tells ``-0.0`` from ``0.0``, ``1`` from ``1.0`` and
    prints each float in its shortest round-trip form: equal reprs are
    bit-equal events."""
    return repr(list(events))


def test_the_shipped_trace_is_the_one_shot_trace(tmp_path):
    specs = _specs() + [{
        "scheme": "TSS",
        "workload": {"kind": "uniform", "size": 200, "unit": 1e-4},
        "cluster": {"workers": 3},
        "trace": True, "stream": True,
    }]
    with _Daemon(tmp_path) as d, d.client("alice") as c:
        replies = [c.run(spec, timeout=60) for spec in specs]
    for spec, reply in zip(specs, replies):
        assert reply["state"] == "done", (spec, reply)
        trace = reply["trace"]
        assert type(trace) is EventList
        one_shot = job_from_spec(spec).run().obs_events
        assert len(trace) == reply["events_emitted"] == len(one_shot)
        assert stream_digest(trace) == reply["digest"]
        assert _exact(trace) == _exact(one_shot), spec
        assert all(type(ev) is ObsEvent for ev in trace)


def test_submit_wait_prints_one_dict_per_event(tmp_path, capsys):
    spec = {
        "scheme": "GSS",
        "workload": {"kind": "uniform", "size": 60, "unit": 1e-4},
        "cluster": {"workers": 2},
        "trace": True,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    with _Daemon(tmp_path) as d:
        capsys.readouterr()
        assert cli.main(["submit", "--socket", d.sock, "--tenant",
                         "alice", "--spec", str(path), "--wait"]) == 0
    printed = json.loads(capsys.readouterr().out)
    events = job_from_spec(spec).run().obs_events
    assert printed["state"] == "done"
    assert printed["trace"] == [ev.to_dict() for ev in events]
    assert [ObsEvent.from_dict(doc) for doc in printed["trace"]] == events
