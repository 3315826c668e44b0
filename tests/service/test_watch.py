"""Live telemetry over the service wire: subscribe / watch / top.

The acceptance checks from the issue live here:

* a subscriber sees chunk-level events *while* the job runs (at least
  one ``compute`` frame lands before the job's terminal event);
* stream fidelity: after :func:`~repro.obs.canonical_stream` the
  subscriber's events are byte-identical to the server-side tenant
  trace, the cumulative drop count is declared in every frame, and the
  job's ``stream_digest`` is bit-identical to a one-shot run that was
  never subscribed -- streaming is a tap, not a second code path;
* the incremental merged trace (``events_for``) agrees with the
  ground-truth per-tenant buffers.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.obs import ObsEvent, stream_digest
from repro.runtime.config import RuntimeConfig
from repro.service import ServiceClient, ServiceError
from repro.service.cli import TopState, _rolling_gauges
from repro.service.jobs import job_from_spec
from repro.service.server import (
    ServiceConfig,
    ServiceServer,
    SUBSCRIBER_QUEUE,
)
from repro.verify import audit_subscription

SNAPPY = RuntimeConfig(
    poll_timeout=0.05,
    worker_deadline=20.0,
    heartbeat_interval=0.2,
    join_timeout=5.0,
)

SPEC = {
    "scheme": "TSS",
    "workload": {"kind": "uniform", "size": 200, "unit": 1e-4},
    "cluster": {"workers": 3},
    "tag": "watched",
}


class _Daemon(object):
    """A live daemon on a background thread, torn down on exit."""

    def __init__(self, tmp_path, **config_kwargs):
        self.sock = str(tmp_path / "repro.sock")
        kwargs = dict(workers=2, socket_path=self.sock)
        kwargs.update(config_kwargs)
        kwargs.setdefault("runtime", SNAPPY)
        self.server = ServiceServer(ServiceConfig(**kwargs))
        self._thread = threading.Thread(
            target=lambda: asyncio.run(
                self.server.serve(install_signals=False)
            ),
            daemon=True,
        )

    def __enter__(self):
        self._thread.start()
        probe = ServiceClient.connect(
            self.sock, tenant="probe", retry_for=10.0
        )
        probe.close()
        return self

    def __exit__(self, *exc):
        if self._thread.is_alive():
            try:
                with self.client("teardown") as c:
                    c.drain()
            except Exception:
                pass
            self._thread.join(timeout=30.0)

    def client(self, tenant: str) -> ServiceClient:
        return ServiceClient.connect(
            self.sock, tenant=tenant, retry_for=5.0
        )


def _collect(daemon, tenant: str, spec: dict):
    """Submit ``spec`` while a same-tenant subscriber watches.

    Returns ``(frames, result, trace)`` -- every pushed frame, the
    job's terminal payload, and the server-side tenant trace.
    """
    with daemon.client(tenant) as watcher:
        # Subscribe before submitting: the daemon marks jobs for
        # worker-side streaming only when a matching subscriber is
        # attached at admission (or the spec asks with "stream").
        watcher.subscribe()
        with daemon.client(tenant) as submitter:
            job_id = submitter.submit(spec)
            frames = list(
                watcher.watch(job_id=job_id, timeout=60.0)
            )
            result = submitter.wait(job_id, timeout=120.0)
            trace = submitter.trace()
    return frames, result, trace


def _streamed_events(frames) -> list[ObsEvent]:
    return [
        ObsEvent.from_dict(d)
        for frame in frames
        for d in frame.get("events", ())
    ]


class TestLiveStream:
    def test_chunk_events_arrive_before_terminal(self, tmp_path):
        with _Daemon(tmp_path) as d:
            frames, result, _ = _collect(d, "alice", SPEC)
        assert result["state"] == "done"
        kinds = [ev.kind for ev in _streamed_events(frames)]
        assert "compute" in kinds, \
            "no chunk-level event ever reached the subscriber"
        assert kinds.index("compute") < kinds.index("job-result"), \
            "chunk events arrived only after the terminal event"
        # Every frame declares its place in the stream and the
        # cumulative loss; this run is fast enough to lose nothing.
        assert [f["n"] for f in frames] == list(
            range(1, len(frames) + 1)
        )
        assert frames[-1]["drops"] == 0

    def test_stream_is_a_tap_not_a_second_source(self, tmp_path):
        """Acceptance: digest(streamed) == digest(server trace) ==
        digest(one-shot, never-subscribed run)."""
        reference = stream_digest(job_from_spec(SPEC).run().obs_events)
        with _Daemon(tmp_path) as d:
            frames, result, trace_docs = _collect(d, "alice", SPEC)
        streamed = _streamed_events(frames)
        trace = [ObsEvent.from_dict(doc) for doc in trace_docs]
        assert stream_digest(streamed) == stream_digest(trace)
        assert result["digest"] == reference
        assert stream_digest(streamed) == reference
        audit_subscription(
            frames, trace=trace, complete=True
        ).raise_if_failed()

    def test_wire_carries_event_dicts_never_bare_events(self, tmp_path):
        """``ObsEvent`` is a named tuple, and ``json`` encodes a tuple
        silently as an array: every event of a watch batch or a
        ``trace`` reply must be its ``to_dict()`` form.  A job's
        shipped trace is rows on purpose: exactly the eleven fields of
        each one-shot event, in order."""
        spec = dict(SPEC, trace=True)
        with _Daemon(tmp_path) as d:
            frames, result, trace_docs = _collect(d, "alice", spec)
        batches = [f["events"] for f in frames if f.get("events")]
        assert batches and trace_docs and result["trace"]
        for docs in batches + [trace_docs]:
            for doc in docs:
                assert isinstance(doc, dict), doc
                assert {"kind", "source", "t"} <= set(doc)
                assert ObsEvent.from_dict(doc).to_dict() == doc
        rows = result["trace"].rows()
        assert all(type(row) is tuple and len(row) == 11 for row in rows)
        one_shot = job_from_spec(spec).run().obs_events
        assert rows == [tuple(ev) for ev in one_shot]
        assert len(result["trace"]) == result["events_emitted"]

    def test_wildcard_subscriber_sees_every_tenant(self, tmp_path):
        with _Daemon(tmp_path) as d:
            with d.client("watcher") as watcher:
                watcher.subscribe(tenant="*")
                with d.client("alice") as a, d.client("bob") as b:
                    ja = a.submit(SPEC)
                    jb = b.submit(dict(SPEC, tag="bob"))
                    a.wait(ja, timeout=120.0)
                    b.wait(jb, timeout=120.0)
                seen = set()
                deadline = 60.0
                for frame in watcher.watch(timeout=deadline):
                    seen.add(frame.get("tenant"))
                    if {"alice", "bob"} <= seen:
                        break
        assert {"alice", "bob"} <= seen

    def test_double_subscribe_rejected_both_sides(self, tmp_path):
        with _Daemon(tmp_path) as d, d.client("alice") as c:
            # The daemon accepts the aliased op name too.
            reply = c._request({"op": "watch", "tenant": "alice"})
            assert reply.get("subscribed") is True
            assert reply.get("queue_capacity") == SUBSCRIBER_QUEUE
            # Server side: a second subscribe on the same (now
            # streaming, but idle) connection is refused.
            reply = c._request({"op": "subscribe"})
            assert reply.get("ok") is False
            assert reply.get("error") == "already-subscribed"
            # Client side: the guard trips before any frame is sent.
            c._subscribed = True
            with pytest.raises(ServiceError) as err:
                c.subscribe()
            assert err.value.reason == "already-subscribed"

    def test_subscriber_metrics_exposed(self, tmp_path):
        with _Daemon(tmp_path) as d:
            with d.client("watcher") as watcher:
                watcher.subscribe(tenant="alice")
                with d.client("alice") as c:
                    c.run(SPEC, timeout=120.0)
                    snapshot = c.metrics()
        assert snapshot["stream_subscribers"]["value"] == 1.0
        assert snapshot["stream_events_total"]["value"] > 0
        assert "rolling_chunk_rate" in snapshot
        assert "rolling_utilization" in snapshot
        gauges = _rolling_gauges(snapshot)
        assert gauges["chunk_rate"] > 0.0


class TestSlowWatcher:
    #: SS draws one chunk per iteration: about 80 000 streamed events,
    #: far more than a watcher that never reads can buffer.
    SPEC = {
        "scheme": "SS",
        "workload": {"kind": "uniform", "size": 20000, "unit": 1e-4},
        "cluster": {"workers": 2},
        "stream": True,
    }

    def test_a_watcher_that_falls_behind_loses_batches_not_its_end(
        self, tmp_path
    ):
        """A subscriber that reads nothing while a job streams sheds
        batches (counted); the job and its digest are untouched, and
        at drain the watcher still gets its backlog and the end
        frame."""
        reference = stream_digest(job_from_spec(self.SPEC).run().obs_events)
        frames: list = []
        with _Daemon(tmp_path, workers=1) as d, \
                d.client("alice") as watcher, d.client("alice") as c:
            watcher.subscribe()
            out = c.run(self.SPEC, timeout=120.0)
            metrics = c.metrics()
            reader = threading.Thread(
                target=lambda: frames.extend(watcher.watch(timeout=60.0))
            )
            reader.start()
            c.drain()
            reader.join(timeout=60.0)
            d._thread.join(timeout=30.0)
            assert not d._thread.is_alive(), "daemon failed to drain"
        assert out["state"] == "done"
        assert out["digest"] == reference
        assert metrics.get("stream_drops_total", {"value": 0})["value"] > 0
        assert not reader.is_alive()
        audit_subscription(frames, complete=False).raise_if_failed()
        assert frames[-1]["watch"] == "end", frames[-1]
        assert frames[-1]["drops"] > 0


class TestIncrementalTrace:
    def _server(self) -> ServiceServer:
        return ServiceServer(ServiceConfig(socket_path="unused"))

    @staticmethod
    def _ev(t: float, kind: str = "job-submit") -> ObsEvent:
        return ObsEvent(kind=kind, source="service", t=t)

    def test_merged_view_is_incremental_and_sorted(self):
        server = self._server()
        server._record_event("b", self._ev(2.0))
        server._record_event("a", self._ev(1.0))
        merged = server.events_for(None)
        assert [ev.t for ev in merged] == [1.0, 2.0]
        # A later append folds in without rebuilding from scratch:
        # the per-tenant cursors advance past what was merged.
        assert server._merged_idx == {"a": 1, "b": 1}
        server._record_event("a", self._ev(3.0))
        server._record_event("b", self._ev(0.5))
        merged = server.events_for(None)
        assert [ev.t for ev in merged] == [0.5, 1.0, 2.0, 3.0]
        assert server._merged_idx == {"a": 2, "b": 2}
        # No fresh events: the cached merge is returned as-is.
        assert server.events_for(None) is merged


class TestTopState:
    def _frame(self, n, tenant, events, drops=0):
        return {"watch": "events", "n": n, "drops": drops,
                "tenant": tenant, "events": events}

    def test_absorbs_chunks_and_jobs(self):
        state = TopState()
        state.absorb(self._frame(1, "alice", [
            {"kind": "job-submit", "detail": "tenant=alice job=a-1"},
            {"kind": "compute", "worker": 0, "start": 0, "stop": 8,
             "value": 0.5},
            {"kind": "compute", "worker": 1, "start": 8, "stop": 12,
             "value": 0.25},
        ]))
        assert state.running == {"a-1"}
        assert state.workers[("alice", 0)] == [1, 8, 0.5, 8]
        assert state.workers[("alice", 1)] == [1, 4, 0.25, 4]
        state.absorb(self._frame(2, "alice", [
            {"kind": "job-result", "value": 1.5,
             "detail": "tenant=alice job=a-1"},
        ], drops=3))
        assert state.running == set()
        assert state.drops == 3
        text = state.render({"chunk_rate": 2.0})
        assert "alice" in text and "chunk_rate=2" in text
        assert "a-1 result" in text
        assert "frames=2" in state.summary()

    def test_render_without_activity(self):
        assert TopState().render().startswith("repro-top")


@pytest.mark.slow
class TestChaosStream:
    """Seeded-chaos acceptance: the stream survives a mid-loop kill."""

    SLOW_SPEC = {
        "scheme": "SS",
        "workload": {"kind": "uniform", "size": 60000, "unit": 1e-4},
        "cluster": {"workers": 2},
    }

    def test_seeded_kill_keeps_stream_and_digest_faithful(
        self, tmp_path, monkeypatch
    ):
        """A watcher subscribed through a seeded worker kill sees the
        partial first incarnation *and* the recovery re-execution --
        exactly what the server-side trace records (byte-identical
        after canonical_stream when nothing was dropped), with the
        cumulative drop count declared in every frame, and the job's
        digest still bit-identical to a never-subscribed one-shot."""
        from repro.chaos import FaultPlan, WorkerDeath
        from repro.obs import canonical_stream
        from repro.service import protocol

        # The tenant's trace holds the partial first incarnation plus
        # the whole re-execution: 30-40 MB as one ``trace`` reply,
        # either side of the default cap depending on where the kill
        # lands.  This test is about the stream, not the cap.
        monkeypatch.setattr(
            protocol, "MAX_FRAME", 4 * protocol.MAX_FRAME)
        reference = stream_digest(
            job_from_spec(self.SLOW_SPEC).run().obs_events
        )
        plan = FaultPlan(events=(
            WorkerDeath(worker=0, at=0.6),
            WorkerDeath(worker=1, at=0.6),
        ))
        with _Daemon(tmp_path) as d:
            with d.client("alice") as watcher:
                watcher.subscribe()
                with d.client("alice") as c:
                    jid = c.submit(self.SLOW_SPEC)
                    assert c.inject_chaos(plan.to_json()) == 2
                    frames = list(
                        watcher.watch(job_id=jid, timeout=240.0)
                    )
                    out = c.wait(jid, timeout=240.0)
                    trace = [
                        ObsEvent.from_dict(doc) for doc in c.trace()
                    ]
        assert out["state"] == "done"
        assert out["requeues"] >= 1, \
            "seeded kill never interrupted the watched job"
        assert out["digest"] == reference, \
            "streaming perturbed the job's canonical digest"
        drops = frames[-1]["drops"]
        streamed = _streamed_events(frames)
        audit_subscription(
            frames, trace=trace, complete=(drops == 0)
        ).raise_if_failed()
        if drops == 0:
            assert canonical_stream(streamed) == \
                canonical_stream(trace)
        kinds = [ev.kind for ev in streamed]
        assert "compute" in kinds
        assert kinds.index("compute") < kinds.index("job-result")
