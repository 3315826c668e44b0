"""Count pins on a small job's round trip through an in-process daemon.

A finite ASCII spec is submitted and then waited on, the ``wait`` held
while the job runs.  On that path the submit parses the scheme once,
no frame or envelope is written by :mod:`json` (all are the codec's
exact bytes), the held reply is framed from the body the pool has in
hand without reading the spill file back, and two specs that ask for the
same default cluster share one :class:`~repro.simulation.ClusterSpec`.
"""

from __future__ import annotations

import collections
import json

import pytest

from repro.core import registry
from repro.obs import stream_digest
from repro.service import jobs as jobs_module
from repro.service import pool as pool_module
from repro.service import protocol
from repro.service.jobs import job_from_spec
from repro.simulation import ClusterSpec

from .test_server import _Daemon, _wait_until

#: A finite ASCII spec on a default cluster.
SPEC = {
    "scheme": "TSS",
    "workload": {"kind": "linear", "size": 150, "slope": 1.5},
    "cluster": {"workers": 3},
    "tag": "small/0",
}

#: Holds the daemon's one pool worker while ``SPEC`` is submitted and
#: waited on: a spin loop whose results are computed, every pass of
#: every iteration (~0.2 s on one core).
BLOCKER = {
    "scheme": "TSS",
    "workload": {"kind": "spin", "size": 500},
    "cluster": {"workers": 2},
    "results": True,
}


def _count(monkeypatch, calls, owner, name):
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


@pytest.fixture(scope="module")
def held_round_trip(tmp_path_factory):
    """Counts over one submit of ``SPEC`` and its held ``wait``, the
    reply, and the digest it must carry."""
    reference = stream_digest(job_from_spec(SPEC).run().obs_events)
    calls: collections.Counter = collections.Counter()
    monkeypatch = pytest.MonkeyPatch()
    tmp_path = tmp_path_factory.mktemp("counts")
    try:
        with _Daemon(tmp_path, workers=1) as d, d.client("alice") as c:
            blocker = c.submit(BLOCKER)
            # Counted from here on, in this process: the daemon and
            # the client (the pool worker was forked at start).
            _count(monkeypatch, calls, registry, "parse")
            # Every :mod:`json` write ends in ``JSONEncoder.encode``:
            # ``json.dumps`` and the codec's fallback
            # (``repro.obs.export.json_dumps``), whose encoders are
            # built once, so a pin on ``json.dumps`` would not see it.
            _count(monkeypatch, calls, json.JSONEncoder, "encode")
            _count(monkeypatch, calls, pool_module._Spill, "read")
            _count(monkeypatch, calls, type(d.server), "_wait_reply")
            job_id = c.submit(SPEC)
            submit_parses = calls["parse"]
            held = d.server.pool.records[job_id].state != "done"
            reply = c.wait(job_id, timeout=60.0)
            monkeypatch.undo()
            c.wait(blocker, timeout=60.0)
    finally:
        monkeypatch.undo()
    return {"calls": calls, "submit_parses": submit_parses,
            "held": held, "reply": reply, "reference": reference}


def test_the_wait_was_held(held_round_trip):
    """The precondition of the pins below: ``SPEC`` was queued behind
    the blocker when its ``wait`` arrived, and its completion framed
    the one reply."""
    assert held_round_trip["held"]
    assert held_round_trip["calls"]["_wait_reply"] == 1
    reply = held_round_trip["reply"]
    assert reply["state"] == "done"
    assert reply["digest"] == held_round_trip["reference"]


def test_the_submit_parses_the_scheme_once(held_round_trip):
    assert held_round_trip["submit_parses"] == 1
    assert held_round_trip["calls"]["parse"] == 1


def test_no_frame_of_the_round_trip_is_written_by_json(held_round_trip):
    """The submit, its reply, the ``wait`` and the held reply's
    envelope are the codec's exact bytes: no :mod:`json` write."""
    assert held_round_trip["calls"]["encode"] == 0


def test_the_held_reply_reads_no_spill(held_round_trip):
    assert held_round_trip["calls"]["read"] == 0


def test_a_later_wait_reads_the_spilled_body(tmp_path, monkeypatch):
    """The body in hand is let go once the completion is answered: a
    ``wait`` on a finished job reads it from the spill file."""
    with _Daemon(tmp_path, workers=1) as d, d.client("alice") as c:
        job_id = c.submit(SPEC)
        first = c.wait(job_id, timeout=60.0)
        record = d.server.pool.records[job_id]
        # Let go on the loop once the completion has been answered.
        _wait_until("the body in hand let go",
                    lambda: record._held is None)
        assert record._spill is not None
        calls: collections.Counter = collections.Counter()
        _count(monkeypatch, calls, pool_module._Spill, "read")
        again = c.wait(job_id, timeout=60.0)
        assert calls["read"] == 1
        assert again == dict(first, seq=again["seq"])


def test_a_wait_decodes_its_body_once_and_only_when_read(
    tmp_path, monkeypatch
):
    """A ``wait`` on a finished job makes one codec decode, of its
    envelope; the body is decoded at the first read of a member of it,
    and never again."""
    reference = stream_digest(job_from_spec(SPEC).run().obs_events)
    with _Daemon(tmp_path, workers=1) as d, d.client("alice") as c:
        job_id = c.submit(SPEC)
        c.wait(job_id, timeout=60.0)
        calls: collections.Counter = collections.Counter()
        _count(monkeypatch, calls, protocol, "json_loads")
        reply = c.wait(job_id, timeout=60.0)
        assert calls["json_loads"] == 1
        assert reply["state"] == "done" and reply["digest"] == reference
        assert reply["ok"] and reply["job_id"] == job_id
        assert calls["json_loads"] == 1
        assert reply["result"]["chunks"]
        assert calls["json_loads"] == 2
        assert dict(reply)["events_emitted"] == reply["events_emitted"]
        assert "trace" not in reply and len(reply) == 8
        assert calls["json_loads"] == 2


def test_two_default_cluster_specs_build_one_cluster(monkeypatch):
    """Admission and the pool worker build one ``SimJob`` each from the
    same spec; a default cluster is built once per size and shared."""
    jobs_module._default_cluster.cache_clear()
    built: collections.Counter = collections.Counter()
    _count(monkeypatch, built, ClusterSpec, "__post_init__")
    a = job_from_spec(SPEC)
    b = job_from_spec(dict(SPEC, scheme="GSS", tag="small/1"))
    assert built["__post_init__"] == 1
    assert a.cluster is b.cluster
    # Any cluster field set, or a ``nodes`` array, builds its own.
    own = job_from_spec(dict(SPEC, cluster={"workers": 3,
                                            "master_service": 1e-3}))
    assert own.cluster is not a.cluster
    assert [(n.name, n.speed) for n in own.cluster.nodes] \
        == [(n.name, n.speed) for n in a.cluster.nodes]
    assert built["__post_init__"] == 2
