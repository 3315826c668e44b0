"""ServiceServer end-to-end: tenants, digests, admission, drain.

These tests run a real daemon (asyncio on a background thread, real
worker processes, real Unix sockets) and drive it with the blocking
:class:`~repro.service.client.ServiceClient` -- the production
pairing.  The acceptance checks from the issue live here:

* >= 4 concurrent tenants on one shared pool, each getting a canonical
  stream digest bit-identical to the one-shot ``SimJob`` equivalent;
* admission control bounds memory: hammering a full queue yields
  reasoned rejects, not unbounded queueing;
* graceful drain finishes in-flight jobs and rejects new ones.
"""

from __future__ import annotations

import asyncio
import errno
import json
import os
import threading
import time

import pytest

from repro.obs import stream_digest
from repro.runtime.config import RuntimeConfig
from repro.service import ServiceClient, ServiceError, protocol
from repro.service import pool as pool_module
from repro.service.protocol import encode_frame, recv_frame
from repro.service.jobs import MAX_WORKERS, job_from_spec
from repro.service.server import ServiceConfig, ServiceServer
from repro.verify import audit_service_log

SNAPPY = RuntimeConfig(
    poll_timeout=0.05,
    worker_deadline=20.0,
    heartbeat_interval=0.2,
    join_timeout=5.0,
)


def tenant_spec(i: int) -> dict:
    """Per-tenant distinct jobs (scheme and size differ)."""
    schemes = ["TSS", "GSS", "FSS", "CSS", "adaptive:TSS+FSS@4"]
    return {
        "scheme": schemes[i % len(schemes)],
        "workload": {
            "kind": "uniform", "size": 150 + 25 * i, "unit": 1e-4,
        },
        "cluster": {"workers": 3},
        "tag": f"tenant-{i}",
    }


#: A traced spec small enough to pin whole.
PINNED_SPEC = {
    "scheme": "S",
    "workload": {"kind": "uniform", "size": 4, "unit": 0.25},
    "cluster": {"workers": 2},
    "trace": True,
}
#: The ``wait`` reply the daemon sends for ``PINNED_SPEC`` (first job
#: of tenant ``alice``, ``seq`` 3), its envelope and body frames as one
#: object, keys sorted as when a reply was still a dict tree
#: re-encoded with ``sort_keys`` on the event loop.  The trace is one
#: row per event: the eleven ``ObsEvent`` fields in order.
PINNED_REPLY = (
    '{"digest":"e9265275850ac46ca17546b956c096ba513f192b78a8c54025edb70'
    'e5e46f51a","events_emitted":12,"job_id":"alice-000001","ok":true,"'
    'requeues":0,"result":{"chunks":[{"acp":null,"assigned_at":0.002281'
    '9199999999998,"completed_at":0.00728192,"stage":0,"start":0,"stop"'
    ':2,"worker":0},{"acp":null,"assigned_at":0.0024819200000000003,"co'
    'mpleted_at":0.00748192,"stage":0,"start":2,"stop":4,"worker":1}],"'
    'events":10,"rederivations":0,"scheme":"S","t_p":0.00855232,"worker'
    's":[{"chunks":1,"finished_at":0.00957792,"iterations":2,"name":"n0'
    '","t_com":0.0041664,"t_comp":0.005,"t_wait":0.0004115200000000007}'
    ',{"chunks":1,"finished_at":0.00977792,"iterations":2,"name":"n1","'
    't_com":0.0041664,"t_comp":0.005,"t_wait":0.0006115200000000008}]},'
    '"seq":3,"state":"done","trace":[["request","sim.master",0.0,0,null'
    ',null,null,null,null,"",null],["request","sim.master",0.0,1,null,n'
    'ull,null,null,null,"",null],["assign","sim.master",0.00125632,0,0,'
    '2,0,null,null,"",null],["assign","sim.master",0.00145632,1,2,4,0,n'
    'ull,null,"",null],["compute","sim.master",0.0022819199999999998,0,'
    '0,2,0,null,0.005,"",null],["compute","sim.master",0.00248192000000'
    '00003,1,2,4,0,null,0.005,"",null],["request","sim.master",0.007281'
    '92,0,null,null,null,null,null,"",null],["request","sim.master",0.0'
    '0748192,1,null,null,null,null,null,"",null],["result","sim.master"'
    ',0.00835232,0,0,2,null,null,null,"",null],["result","sim.master",0'
    '.00855232,1,2,4,null,null,null,"",null],["terminate","sim.master",'
    '0.00957792,0,null,null,null,null,null,"",null],["terminate","sim.m'
    'aster",0.00977792,1,null,null,null,null,null,"",null]]}'
)
#: Passes ``job_from_spec``; ``costs()`` raises (1e308 + 1e308).
UNRESOLVABLE_SPEC = {
    "scheme": "TSS",
    "workload": {"kind": "gaussian-peak", "size": 50,
                 "amplitude": 1e308, "floor": 1e308},
    "cluster": {"workers": 2},
}
PINNED_FAILURE = {
    "ok": False, "state": "failed", "requeues": 0,
    "job_id": "alice-000002", "seq": 6,
    "error": "TypeError: StaticScheduler.__init__() got an unexpected "
             "keyword argument 'no_such_kwarg'",
}


def _wait_until(what: str, ready) -> None:
    deadline = time.monotonic() + 30.0
    while not ready():
        assert time.monotonic() < deadline, what
        time.sleep(0.02)


def _call_on(loop: asyncio.AbstractEventLoop, fn):
    """What ``fn()`` returns when ``loop`` runs it (from its thread)."""
    done = threading.Event()
    out = []

    def call() -> None:
        out.append(fn())
        done.set()

    loop.call_soon_threadsafe(call)
    assert done.wait(30.0), "the loop never ran the call"
    return out[0]


class _Daemon(object):
    """A live daemon on a background thread, torn down on exit.

    ``loop_factory`` makes the event loop it runs on (default:
    ``asyncio.new_event_loop``).
    """

    def __init__(self, tmp_path, loop_factory=None, **config_kwargs):
        self.sock = str(tmp_path / "repro.sock")
        kwargs = dict(workers=2, socket_path=self.sock)
        kwargs.update(config_kwargs)
        kwargs.setdefault("runtime", SNAPPY)
        self.server = ServiceServer(ServiceConfig(**kwargs))
        self._loop_factory = loop_factory
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self) -> None:
        loop = (self._loop_factory or asyncio.new_event_loop)()
        try:
            loop.run_until_complete(
                self.server.serve(install_signals=False)
            )
        finally:
            loop.close()

    def __enter__(self):
        self._thread.start()
        # Wait for the socket to accept (client retries handle it).
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


class TestBasics:
    def test_hello_ping_status(self, tmp_path):
        with _Daemon(tmp_path) as d, d.client("alice") as c:
            assert c.server_info["tenant"] == "alice"
            assert c.ping()
            status = c.status()
            assert status["pool"]["workers"] == 2
            assert status["draining"] is False

    def test_bad_spec_rejected_with_reason(self, tmp_path):
        with _Daemon(tmp_path) as d, d.client("alice") as c:
            with pytest.raises(ServiceError) as err:
                c.submit({"scheme": "NOPE",
                          "workload": {"kind": "uniform", "size": 5}})
            assert err.value.reason == "bad-spec"

    def test_oversized_cluster_rejected_with_reason(self, tmp_path):
        with _Daemon(tmp_path) as d, d.client("alice") as c:
            for cluster in ({"workers": MAX_WORKERS + 1},
                            {"nodes": [{"speed": 100.0}]
                             * (MAX_WORKERS + 1)}):
                with pytest.raises(ServiceError) as err:
                    c.submit({"scheme": "TSS", "cluster": cluster,
                              "workload": {"kind": "uniform", "size": 5}})
                assert err.value.reason == "bad-spec"
            assert c.ping()

    def test_oversized_loop_rejected_with_reason(self, tmp_path):
        # Finite sizes near 1e9 made the pool worker allocate gigabytes.
        with _Daemon(tmp_path) as d, d.client("alice") as c:
            for workload, cluster in (
                ({"kind": "uniform", "size": 1e9}, None),
                ({"kind": "mandelbrot", "width": 4000, "height": 10 ** 6},
                 None),
                ({"kind": "uniform", "size": 5},
                 {"nodes": [{"speed": 100.0, "virtual_power": 1e300}]}),
            ):
                with pytest.raises(ServiceError) as err:
                    c.submit({"scheme": "DTSS", "workload": workload,
                              "cluster": cluster})
                assert err.value.reason == "bad-spec"
            assert c.ping()

    def test_lone_surrogate_name_is_answered_done(self, tmp_path):
        # ``json`` admits "\ud800" and orjson refuses to write it: the
        # result is written by ``json`` instead, inside the pool
        # worker's reply, not left to kill the worker (and requeue the
        # job until too-many-requeues).
        spec = {
            "scheme": "TSS",
            "workload": {"kind": "uniform", "size": 40, "unit": 1e-4},
            "cluster": {"nodes": [{"name": "\ud800", "speed": 100.0},
                                  {"name": "n1", "speed": 100.0}]},
            "trace": True,
        }
        reference = stream_digest(job_from_spec(spec).run().obs_events)
        with _Daemon(tmp_path) as d, d.client("alice") as c:
            job_id = c.submit(spec)
            reply = c._request({"op": "wait", "job_id": job_id,
                                "timeout": 60.0})
            assert reply["state"] == "done" and reply["requeues"] == 0
            assert reply["digest"] == reference
            assert reply["result"]["workers"][0]["name"] == "\ud800"

    def test_unknown_op(self, tmp_path):
        with _Daemon(tmp_path) as d, d.client("alice") as c:
            with pytest.raises(ServiceError) as err:
                c._checked({"op": "teleport"})
            assert err.value.reason == "unknown-op"

    @pytest.mark.parametrize("request_doc, reason", [
        ({"op": "kill-worker", "worker": None}, "bad-worker"),
        ({"op": "kill-worker", "worker": float("inf")}, "bad-worker"),
        ({"op": "chaos", "time_scale": "x"}, "bad-plan"),
        ({"op": "chaos", "time_scale": float("nan")}, "bad-plan"),
        ({"op": "wait", "job_id": "nope", "timeout": "x"},
         "bad-timeout"),
        ({"op": "wait", "job_id": "nope", "timeout": [1]},
         "bad-timeout"),
    ])
    def test_malformed_numeric_field_is_refused_not_fatal(
        self, tmp_path, request_doc, reason
    ):
        # Raw int()/float() on these fields used to raise out of the
        # connection handler: no reply, connection dead.
        with _Daemon(tmp_path) as d, d.client("alice") as c:
            with pytest.raises(ServiceError) as err:
                c._checked(request_doc)
            assert err.value.reason == reason
            assert c.ping()  # same connection, handler still alive

    def test_wait_reply_parses_to_the_pinned_dicts(self, tmp_path):
        # The reply's body is the bytes encoded in the pool worker;
        # read with its envelope, it is the dict the daemon always
        # sent (its trace's rows read as events).
        with _Daemon(tmp_path) as d, d.client("alice") as c:
            job_id = c.submit(PINNED_SPEC)
            reply = c._request({"op": "wait", "job_id": job_id})
            assert dict(reply, trace=list(map(list, reply["trace"]))) \
                == json.loads(PINNED_REPLY)
            # A second wait re-frames the same stored bytes.
            again = c._request({"op": "wait", "job_id": job_id})
            assert again == dict(reply, seq=again["seq"])
            bad = c.submit(dict(PINNED_SPEC,
                                params={"no_such_kwarg": 1}))
            assert c._request({"op": "wait", "job_id": bad}) \
                == PINNED_FAILURE

    def test_oversized_wait_reply_is_refused_not_fatal(
        self, tmp_path, monkeypatch
    ):
        # A reply over MAX_FRAME used to raise out of the connection
        # handler: no reply, connection dead.
        monkeypatch.setattr(protocol, "MAX_FRAME", 1024)
        reference = stream_digest(
            job_from_spec(PINNED_SPEC).run().obs_events
        )
        with _Daemon(tmp_path) as d, d.client("alice") as c:
            # ``stream`` puts the chunk events in the tenant's trace.
            job_id = c.submit(dict(PINNED_SPEC, stream=True))
            reply = c._request({"op": "wait", "job_id": job_id})
            assert reply["ok"] is False
            assert reply["error"] == "reply-too-large"
            size = len(d.server.pool.records[job_id].body)
            assert f"{size} bytes" in reply["message"]
            assert "MAX_FRAME (1024)" in reply["message"]
            assert reply["state"] == "done"
            assert reply["digest"] == reference
            assert c.ping()  # same connection, handler still alive
            # Any other reply that outgrows the cap is refused alike.
            with pytest.raises(ServiceError) as err:
                c.trace()
            assert err.value.reason == "reply-too-large"
            assert c.ping()

    def test_unresolvable_cost_profile_fails_the_job_not_the_daemon(
        self, tmp_path
    ):
        # The spec is well-formed, its cost vector is not (inf): the
        # error used to escape admission from the resolving executor --
        # handler dead, connection closed mid-request, and a pending
        # slot counted for a record nobody would ever finish.
        with _Daemon(tmp_path, workers=1, tenant_capacity=1) as d, \
                d.client("alice") as c:
            job_id = c.submit(UNRESOLVABLE_SPEC)
            reply = c._request({"op": "wait", "job_id": job_id})
            assert reply["ok"] is False and reply["state"] == "failed"
            assert reply["error"].startswith(
                "WorkloadError: iteration costs must be finite")
            assert c.ping()  # same connection, handler still alive
            assert d.server.pool.pending("alice") == 0
            # tenant_capacity is 1: a leaked slot would refuse this.
            assert c.run(tenant_spec(0), timeout=60)["state"] == "done"
            ledger = c.log()
            c.drain()
            d._thread.join(timeout=30.0)
            assert not d._thread.is_alive(), "daemon failed to drain"
        audit_service_log(ledger).raise_if_failed()

    def test_wait_is_tenant_isolated(self, tmp_path):
        with _Daemon(tmp_path) as d:
            with d.client("alice") as alice, d.client("bob") as bob:
                job_id = alice.submit(tenant_spec(0))
                with pytest.raises(ServiceError) as err:
                    bob.wait(job_id, timeout=5)
                assert err.value.reason == "unknown-job"
                assert alice.wait(job_id, timeout=60)["state"] == "done"


class TestHeldWait:
    #: Runs for a few hundred milliseconds in the pool worker.
    SLOWISH = dict(tenant_spec(0), scheme="SS",
                   workload={"kind": "uniform", "size": 12000,
                             "unit": 1e-4})

    def test_frames_behind_a_held_wait_are_answered_after_it(
        self, tmp_path
    ):
        """Replies on a connection come in request order: a ``wait``
        on a running job holds the frames sent behind it."""
        with _Daemon(tmp_path, workers=1) as d, d.client("alice") as c:
            job_id = c.submit(self.SLOWISH)
            c._sock.sendall(
                encode_frame({"op": "wait", "job_id": job_id, "seq": 7})
                + encode_frame({"op": "ping", "seq": 8})
            )
            first, body = recv_frame(c._sock), _recv_payload(c._sock)
            second = recv_frame(c._sock)
        assert first["seq"] == 7 and first["state"] == "done"
        assert json.loads(body)["digest"] == first["digest"]
        assert second == {"ok": True, "pong": True, "seq": 8}

    def test_a_timed_out_or_closed_wait_leaves_the_job_waitable(
        self, tmp_path
    ):
        """Several connections may wait on one job: a wait that times
        out, or whose connection closes, withdraws only itself."""
        with _Daemon(tmp_path, workers=1) as d, \
                d.client("alice") as a, d.client("alice") as b:
            job_id = a.submit(self.SLOWISH)
            b._sock.sendall(encode_frame(
                {"op": "wait", "job_id": job_id, "seq": 1}))
            with d.client("alice") as leaver:
                leaver._sock.sendall(encode_frame(
                    {"op": "wait", "job_id": job_id, "seq": 1}))
            with pytest.raises(ServiceError) as err:
                a.wait(job_id, timeout=0.05)
            assert err.value.reason == "timeout"
            assert a.ping()  # the timed-out connection is served on
            assert recv_frame(b._sock)["state"] == "done"
            assert a.wait(job_id, timeout=60)["state"] == "done"

    def test_status_counts_jobs_by_state(self, tmp_path):
        with _Daemon(tmp_path, workers=1) as d, d.client("alice") as c:
            assert c.status()["jobs"] == {}
            assert c.run(tenant_spec(0), timeout=60)["state"] == "done"
            failed = c.submit(UNRESOLVABLE_SPEC)
            assert c._request({"op": "wait", "job_id": failed})["state"] \
                == "failed"
            assert c.status()["jobs"] == {"done": 1, "failed": 1}
            # One write: the status is answered in the loop step that
            # sent the job to the only worker.
            c._sock.sendall(
                encode_frame({"op": "submit", "job": self.SLOWISH,
                              "seq": 1})
                + encode_frame({"op": "status", "seq": 2})
            )
            job_id = recv_frame(c._sock)["job_id"]
            assert recv_frame(c._sock)["status"]["jobs"] \
                == {"done": 1, "failed": 1, "running": 1}
            assert c.wait(job_id, timeout=60)["state"] == "done"
            assert c.status()["jobs"] == {"done": 2, "failed": 1}


def _recv_payload(sock) -> bytes:
    """One reply frame's payload, the bytes the daemon sent."""
    return bytes(protocol.recv_payload(sock))


def _joined(envelope: bytes, body: bytes) -> dict:
    """The one object a ``wait`` reply's two payloads make."""
    return {**json.loads(body), **json.loads(envelope)}


class TestSpilledReplies:
    """A finished job's body is read back from the pool's spill file
    for every ``wait``, however late."""

    #: SS draws one chunk per iteration: a 177 KB body with its trace.
    TRACED = {
        "scheme": "SS",
        "workload": {"kind": "uniform", "size": 400, "unit": 1e-4},
        "cluster": {"workers": 2},
        "trace": True,
    }

    def test_a_late_wait_answers_the_held_waits_bytes(self, tmp_path):
        one_shot = job_from_spec(self.TRACED).run()
        events = one_shot.obs_events
        with _Daemon(tmp_path, workers=1) as d, d.client("alice") as c:
            c.submit(TestHeldWait.SLOWISH)  # holds the one worker
            job_id = c.submit(self.TRACED)
            ask = encode_frame({"op": "wait", "job_id": job_id, "seq": 7})
            c._sock.sendall(ask)
            held = _recv_payload(c._sock), _recv_payload(c._sock)
            for i in range(50):  # bodies of many sizes land after it
                reply = c.run(dict(tenant_spec(i), trace=i % 3 == 0),
                              timeout=60)
                assert reply["state"] == "done"
            c._sock.sendall(ask)
            late = _recv_payload(c._sock), _recv_payload(c._sock)
        assert late == held
        assert _joined(*held) == {
            "ok": True, "state": "done", "job_id": job_id,
            "requeues": 0, "seq": 7,
            "digest": stream_digest(events),
            "events_emitted": len(events),
            "result": json.loads(one_shot.to_json_bytes(False)),
            "trace": [list(ev) for ev in events],
        }

    def test_a_body_kept_in_memory_answers_the_same_bytes(
        self, tmp_path, monkeypatch
    ):
        """The first job's spill write fails with ENOSPC: its record
        keeps the bytes, and its ``wait`` reply is the one a spilled
        record of the same job gives."""
        append = pool_module._Spill.append
        writes = []

        def full_once(spill, data):
            writes.append(len(data))
            if len(writes) == 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return append(spill, data)

        monkeypatch.setattr(pool_module._Spill, "append", full_once)
        replies = []
        with _Daemon(tmp_path) as d, d.client("alice") as c:
            ids = []
            for _ in range(2):  # one at a time: the write order is fixed
                ids.append(c.submit(PINNED_SPEC))
                c._sock.sendall(encode_frame(
                    {"op": "wait", "job_id": ids[-1], "seq": 3}))
                replies.append(
                    (_recv_payload(c._sock), _recv_payload(c._sock)))
            c.drain()
            d._thread.join(timeout=30.0)
            assert not d._thread.is_alive(), "daemon failed to drain"
        kept, spilled = (d.server.pool.records[job_id] for job_id in ids)
        assert kept._held is not None and kept._spill is None
        assert spilled._spill is not None and spilled._held is None
        assert _joined(*replies[0]) == json.loads(PINNED_REPLY)
        assert [part.replace(ids[0].encode(), ids[1].encode())
                for part in replies[0]] == list(replies[1])
        assert kept.body == spilled.body  # read after the pool stopped


class TestMultiTenantDigests:
    def test_four_tenants_bit_identical_to_one_shot(self, tmp_path):
        """The tentpole acceptance: 4 concurrent tenants sharing one
        pool, every job's digest bit-equal to its one-shot run."""
        n = 4
        references = [
            stream_digest(job_from_spec(tenant_spec(i)).run().obs_events)
            for i in range(n)
        ]
        assert len(set(references)) == n  # genuinely distinct jobs

        outs: dict[int, dict] = {}
        errors: list[Exception] = []

        def tenant_thread(i: int, daemon: _Daemon) -> None:
            try:
                with daemon.client(f"tenant-{i}") as c:
                    outs[i] = c.run(tenant_spec(i), timeout=120)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        with _Daemon(tmp_path) as d:
            threads = [
                threading.Thread(target=tenant_thread, args=(i, d))
                for i in range(n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=180)
            assert not errors, errors
            with d.client("auditor") as c:
                ledger = c.log()
                trace = c.trace("*")
        for i in range(n):
            assert outs[i]["state"] == "done"
            assert outs[i]["digest"] == references[i], f"tenant {i}"
        audit_service_log(ledger).raise_if_failed()
        # Every tenant's lifecycle shows in the merged trace.
        details = " ".join(e.get("detail", "") for e in trace)
        for i in range(n):
            assert f"tenant=tenant-{i}" in details

    def test_trace_scoped_to_tenant(self, tmp_path):
        with _Daemon(tmp_path) as d:
            with d.client("alice") as alice, d.client("bob") as bob:
                alice.run(tenant_spec(0), timeout=60)
                bob.run(tenant_spec(1), timeout=60)
                mine = alice.trace()
                assert mine and all(
                    "tenant=alice" in e["detail"] for e in mine
                )


@pytest.mark.parametrize("kwargs, message", [
    ({"socket_path": None}, "socket_path"),
    ({"workers": 0}, "workers must be >= 1"),
    ({"queue_capacity": 0}, "queue_capacity must be >= 1"),
    ({"tenant_capacity": 0}, "tenant_capacity must be >= 1"),
    # -1 would fail a job at its first worker death: 0 in disguise.
    ({"max_requeues": -1}, "max_requeues must be >= 0"),
], ids=["no-transport", "workers", "queue_capacity", "tenant_capacity",
        "max_requeues"])
def test_service_config_rejects_bad_bounds(kwargs, message):
    with pytest.raises(ValueError, match=message):
        ServiceConfig(**{"socket_path": "repro.sock", **kwargs})


class TestAdmissionControl:
    def test_queue_capacity_rejects_not_oom(self, tmp_path):
        """10x oversubmission against a tiny queue: the overflow is
        rejected with a reason, and admitted+pending never exceeds
        capacity -- bounded memory by construction."""
        capacity = 4
        # A job must outlast several submit round trips (~0.5 ms each)
        # or one connection cannot oversubmit at all: the daemon keeps
        # up with tiny jobs.  SS over 4000 iterations is ~40 ms of DES.
        spec = dict(tenant_spec(0), scheme="SS",
                    workload={"kind": "uniform", "size": 4000,
                              "unit": 1e-4})
        with _Daemon(
            tmp_path, workers=1, queue_capacity=capacity,
            tenant_capacity=capacity,
        ) as d, d.client("flood") as c:
            admitted, rejected = [], []
            for i in range(10 * capacity):
                try:
                    admitted.append(c.submit(spec))
                except ServiceError as exc:
                    assert exc.reason in ("queue-full", "tenant-quota")
                    rejected.append(exc.reason)
            assert rejected, "oversubmission was never rejected"
            status = c.status()
            pending = (
                status["pool"]["queued"] + status["pool"]["inflight"]
            )
            assert pending <= capacity
            # Everything admitted still completes.
            for job_id in admitted:
                assert c.wait(job_id, timeout=120)["state"] == "done"
            metrics = c.metrics()
            assert metrics["jobs_rejected_total"]["value"] \
                == len(rejected)

    def test_tenant_quota_is_per_tenant(self, tmp_path):
        # greedy's first job must still be pending when the second
        # submit lands, so make it wall-clock slow (SS = one event
        # pair per iteration keeps the DES busy ~2s).
        slow = dict(tenant_spec(0), scheme="SS",
                    workload={"kind": "uniform", "size": 60000,
                              "unit": 1e-4})
        with _Daemon(
            tmp_path, workers=1, queue_capacity=64, tenant_capacity=1,
        ) as d:
            with d.client("greedy") as greedy, \
                    d.client("modest") as modest:
                first = greedy.submit(slow)
                with pytest.raises(ServiceError) as err:
                    greedy.submit(tenant_spec(0))
                assert err.value.reason == "tenant-quota"
                # The quota binds greedy, not modest.
                other = modest.submit(tenant_spec(1))
                assert greedy.wait(first, timeout=60)["state"] == "done"
                assert modest.wait(other, timeout=60)["state"] == "done"

    @pytest.mark.parametrize("max_requeues", [3, 0])
    def test_tenant_quota_holds_across_a_worker_death(
        self, tmp_path, max_requeues
    ):
        """A job whose worker dies still counts against its tenant's
        quota while it is requeued, until it finishes; a job that dies
        once too often fails, and frees the quota, at once."""
        # SS in the observed DES (``fast`` off): a run is tens of times
        # a status round trip, the window the requeued job is pending
        # in.
        held = dict(tenant_spec(0), scheme="SS",
                    workload={"kind": "uniform", "size": 30000,
                              "unit": 1e-4},
                    params={"fast": False})
        with _Daemon(tmp_path, workers=1, tenant_capacity=1,
                     max_requeues=max_requeues) as d, \
                d.client("alice") as c:
            # One write: the kill lands in the loop step that sent the
            # job to slot 0, so it hits the job's incarnation.
            c._sock.sendall(
                encode_frame({"op": "submit", "job": held, "seq": 1})
                + encode_frame({"op": "kill-worker", "worker": 0,
                                "seq": 2})
            )
            job_id = recv_frame(c._sock)["job_id"]
            assert recv_frame(c._sock)["killed"] is True
            _wait_until(
                "the death never reached the ledger",
                lambda: any(e["ev"] in ("requeue", "error")
                            for e in c.log()))
            if max_requeues:
                with pytest.raises(ServiceError) as err:
                    c.submit(tenant_spec(0))
                assert err.value.reason == "tenant-quota"
                out = c.wait(job_id, timeout=60)
                assert out["state"] == "done" and out["requeues"] == 1
            else:
                out = c._request({"op": "wait", "job_id": job_id})
                assert out["state"] == "failed"
                assert out["error"].startswith("too-many-requeues")
            assert c.run(tenant_spec(0), timeout=60)["state"] == "done"
            ledger = c.log()
        audit_service_log(ledger).raise_if_failed()


class TestDrain:
    def test_drain_finishes_inflight_and_rejects_new(self, tmp_path):
        # The in-flight job must outlive the drain request, so make it
        # wall-clock slow (SS grinds one event pair per iteration).
        slow = dict(tenant_spec(0), scheme="SS",
                    workload={"kind": "uniform", "size": 60000,
                              "unit": 1e-4})
        with _Daemon(tmp_path, workers=1) as d:
            with d.client("alice") as c:
                job_id = c.submit(slow)
                c.drain()
                with pytest.raises(ServiceError) as err:
                    c.submit(tenant_spec(0))
                assert err.value.reason == "draining"
                # The in-flight job still completes and is waitable.
                out = c.wait(job_id, timeout=60)
                assert out["state"] == "done"
            d._thread.join(timeout=30.0)
            assert not d._thread.is_alive(), "daemon failed to drain"

    def test_metrics_snapshot_shape(self, tmp_path):
        with _Daemon(tmp_path) as d, d.client("alice") as c:
            c.run(tenant_spec(0), timeout=60)
            metrics = c.metrics()
            assert metrics["jobs_submitted_total"]["value"] == 1
            assert metrics["jobs_completed_total"]["value"] == 1
            assert metrics["queue_wait_seconds"]["count"] == 1
            assert metrics["workers_live"]["value"] == 2

    def test_worker_deaths_total_equals_ledger_count(self, tmp_path):
        """The counter is kept where the pool appends ``worker-death``
        (a ``metrics`` poll does not rescan the ledger): a kill on an
        idle slot leaves no entry and is not counted, a kill under a
        running job is."""
        slow = dict(tenant_spec(0), scheme="SS",
                    workload={"kind": "uniform", "size": 60000,
                              "unit": 1e-4})

        def deaths(ledger):
            return sum(1 for e in ledger if e["ev"] == "worker-death")

        with _Daemon(tmp_path, workers=1) as d, d.client("alice") as c:
            pool = d.server.pool
            (old_pid,) = pool.worker_pids()
            assert c.kill_worker(0) is True
            # Submit only once the slot is respawned: a job handed to
            # the dying incarnation would (rightly) log a death.
            _wait_until("slot never respawned",
                       lambda: pool.worker_pids()[0] not in (None, old_pid))
            c.run(tenant_spec(0), timeout=60)
            assert deaths(c.log()) == 0
            assert c.metrics()["worker_deaths_total"]["value"] == 0
            job_id = c.submit(slow)
            _wait_until("job never started",
                       lambda: c.status()["pool"]["inflight"] == 1)
            assert c.kill_worker(0) is True
            out = c.wait(job_id, timeout=120)
            ledger = c.log()
            metrics = c.metrics()
        assert out["state"] == "done" and out["requeues"] == 1
        assert deaths(ledger) == 1
        assert metrics["worker_deaths_total"]["value"] == deaths(ledger)
        audit_service_log(ledger).raise_if_failed()


class TestCacheCounters:
    def test_status_cache_sums_what_the_workers_resolved(self, tmp_path):
        """Profiles are resolved in the pool workers, so that is where
        the counters are read: one compute for two identical specs, and
        a respawned incarnation finds the file the dead one wrote."""
        spec = {
            "scheme": "CSS(8)",
            "workload": {"kind": "mandelbrot", "width": 60,
                         "height": 30},
            "cluster": {"workers": 2},
        }
        reference = stream_digest(job_from_spec(spec).run().obs_events)
        cache_dir = tmp_path / "cold-cache"
        with _Daemon(tmp_path, workers=1, cache_dir=str(cache_dir)) \
                as d, d.client("alice") as c:
            assert c.status()["cache"] == {"hits": 0, "misses": 0}
            first = c.run(spec, timeout=60)
            again = c.run(spec, timeout=60)
            cache = c.status()["cache"]
            assert cache["misses"] == 1 and cache["hits"] >= 1, cache
            assert len(list(cache_dir.glob("*.npy"))) == 1
            (old_pid,) = d.server.pool.worker_pids()
            assert c.kill_worker(0) is True
            _wait_until(
                "slot never respawned",
                lambda: d.server.pool.worker_pids()[0]
                not in (None, old_pid))
            # The dead incarnation's counts are kept.
            assert c.status()["cache"] == cache
            third = c.run(spec, timeout=60)
            after = c.status()["cache"]
            metrics = c.metrics()
        assert after["misses"] == 1, "the respawned worker recomputed"
        assert after["hits"] == cache["hits"] + 1
        assert metrics["cache_hits"]["value"] == after["hits"]
        assert metrics["cache_misses"]["value"] == after["misses"]
        for out in (first, again, third):
            assert out["state"] == "done"
            assert out["digest"] == reference


class _FarClockLoop(asyncio.SelectorEventLoop):
    """An event loop whose clock reads 10**6 s ahead of the system's."""

    def time(self) -> float:
        return super().time() + 1e6


class TestOneThread:
    """The daemon is one thread: its event loop serves the connections
    and drives the pool."""

    def test_a_serving_daemon_runs_no_pool_thread(self, tmp_path):
        before = set(threading.enumerate())
        with _Daemon(tmp_path) as d, d.client("alice") as c:
            assert c.run(tenant_spec(0), timeout=60)["state"] == "done"
            started = set(threading.enumerate()) - before
        assert started == {d._thread}, started

    def test_pool_callbacks_run_on_the_loop_thread(self, tmp_path):
        seen: dict[str, set[int]] = {}
        with _Daemon(tmp_path, workers=1) as d:
            pool = d.server.pool
            for name in ("on_complete", "on_events"):
                def spy(*args, _name=name, _hook=getattr(pool, name)):
                    seen.setdefault(_name, set()).add(threading.get_ident())
                    return _hook(*args)

                setattr(pool, name, spy)
            with d.client("alice") as c:
                out = c.run(dict(tenant_spec(0), stream=True), timeout=60)
                c.drain()
            d._thread.join(timeout=30.0)
            assert not d._thread.is_alive(), "daemon failed to drain"
        assert out["state"] == "done"
        assert seen == {
            name: {d._thread.ident}
            for name in ("on_complete", "on_events")
        }, seen

    def test_a_watcher_a_held_wait_and_a_chaos_plan_start_no_task(
        self, tmp_path
    ):
        """Two subscribers, a ``wait`` held on a running job and a
        chaos plan's two pending deaths are connection state and loop
        timers: the loop runs the tasks it ran before they came."""
        from repro.chaos import FaultPlan, WorkerDeath

        slow = dict(tenant_spec(0), scheme="SS",
                    workload={"kind": "uniform", "size": 30000,
                              "unit": 1e-4},
                    params={"fast": False})
        plan = FaultPlan(events=(
            WorkerDeath(worker=0, at=60.0),
            WorkerDeath(worker=1, at=60.0),
        ))
        with _Daemon(tmp_path) as d, d.client("alice") as c, \
                d.client("alice") as watcher, d.client("bob") as every, \
                d.client("alice") as waiter:
            loop = d.server.pool._loop
            before = _call_on(loop, asyncio.all_tasks)
            watcher.subscribe()
            every.subscribe(tenant="*")
            job_id = c.submit(slow)
            waiter._sock.sendall(encode_frame(
                {"op": "wait", "job_id": job_id, "seq": 1}))
            assert c.inject_chaos(plan.to_json()) == 2
            _wait_until("the wait was never held",
                        lambda: job_id in d.server._waiting)
            during = _call_on(loop, asyncio.all_tasks)
            assert recv_frame(waiter._sock)["state"] == "done"
        assert during == before, during - before

    def test_ledger_and_job_events_read_the_loop_clock(self, tmp_path):
        with _Daemon(tmp_path, loop_factory=_FarClockLoop) as d, \
                d.client("alice") as c:
            assert c.run(tenant_spec(0), timeout=60)["state"] == "done"
            ledger = c.log()
            trace = c.trace()
        assert [e["ev"] for e in ledger] == ["submit", "assign", "result"]
        assert all(e["at"] > 1e6 for e in ledger), ledger
        kinds = {e["kind"]: e["t"] for e in trace}
        assert set(kinds) == {"job-submit", "job-assign", "job-result"}
        assert all(t > 1e6 for t in kinds.values()), kinds
