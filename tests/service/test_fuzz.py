"""Hostile and oddly-cut input against a live daemon's connections.

Three properties of the per-connection handler, each checked against
one daemon shared by the module:

* a valid multi-frame byte stream gets the same replies, in the same
  order, however the socket cuts it into reads;
* a frame that is not UTF-8, not JSON, not a JSON object, or that
  announces more than ``MAX_FRAME`` bytes gets exactly one
  ``protocol`` error reply and then a close -- and every other
  connection keeps being served;
* a submit spec mutated at any one field (wrong type, ``null``,
  ``NaN``, ``1e400``, nested junk) is admitted or refused as
  ``bad-spec``; it never costs the client its connection;
* so is every other op's input: any frame payload (an ``op``, a
  ``seq`` and fields drawn from the same junk), ``trace``'s tenant,
  ``chaos``'s plan and ``time_scale``, the ``subscribe`` / ``watch``
  filters, ``kill-worker``'s slot, ``wait``'s job id and timeout.
  Each gets one reply -- ``ok`` or a reasoned ``error`` -- and the
  connection is then still served.  The daemon's event loop also
  drives the pool, so an exception escaping an op's handler would
  cost more than one connection.

Numbers are drawn up to 1e12: a hostile *finite* size, worker count,
``max_iter``, ``spins`` or ``veclen`` must be refused by admission's
bounds (``service.jobs.MAX_ITERATIONS`` and its neighbours) before a
pool worker allocates or spins for it.
"""

from __future__ import annotations

import json
import math
import socket
import struct
import time

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.service.protocol import (
    MAX_FRAME,
    OPS,
    encode_frame,
    recv_frame,
)

from .test_server import _Daemon

#: A valid job small enough to run in a few milliseconds.
BASE_SPEC = {
    "scheme": "TSS",
    "engine": "master",
    "workload": {"kind": "uniform", "size": 40, "unit": 1e-4},
    "cluster": {"workers": 2, "master_service": 2e-4},
    "params": {},
    "tag": "fuzz",
    "results": False,
    "trace": False,
}

#: What a mutation starts from: ``BASE_SPEC``, and one cheap job of
#: each kind whose extra numbers admission bounds -- the paper's loop,
#: and a spin loop that ships its results, so that every vector pass
#: it asks for is executed.
BASE_SPECS = [
    BASE_SPEC,
    dict(BASE_SPEC, workload={"kind": "mandelbrot", "width": 24,
                              "height": 12, "max_iter": 16}),
    dict(BASE_SPEC, workload={"kind": "spin", "size": 12, "spins": 2,
                              "veclen": 16}, results=True),
]

#: Every field path a mutation may replace (a workload field another
#: kind does not read is ignored by it).
PATHS = [
    ("scheme",), ("engine",), ("workload",), ("workload", "kind"),
    ("workload", "size"), ("workload", "unit"), ("workload", "width"),
    ("workload", "height"), ("workload", "max_iter"),
    ("workload", "spins"), ("workload", "veclen"), ("cluster",),
    ("cluster", "workers"), ("cluster", "master_service"),
    ("cluster", "nodes"), ("params",), ("chaos",), ("chaos_scale",),
    ("tag",), ("results",), ("trace",), ("stream",),
]

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=8),
    st.integers(min_value=0, max_value=10 ** 12),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.5, -1.5, 1e-4,
                     1e9, 1e12]),
    st.text(max_size=8),
)
#: Wrong types, ``null``, non-finite numbers and nested junk.
JUNK = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=6), inner, max_size=3),
    ),
    max_leaves=8,
)


def _not_json(text: str) -> bool:
    try:
        json.loads(text)
    except ValueError:
        return True
    return False


#: Frame payloads the decoder must refuse.
BAD_PAYLOADS = st.one_of(
    # Not UTF-8: 0xff never occurs in UTF-8.
    st.tuples(st.binary(max_size=16), st.binary(max_size=16)).map(
        lambda parts: parts[0] + b"\xff" + parts[1]),
    # UTF-8, not JSON.
    st.text(min_size=1, max_size=24).filter(_not_json).map(
        lambda text: text.encode("utf-8")),
    # JSON, not an object.
    st.one_of(
        st.integers(), st.floats(allow_nan=False), st.text(max_size=8),
        st.lists(st.integers(), max_size=3), st.none(), st.booleans(),
    ).map(lambda doc: json.dumps(doc).encode("utf-8")),
)

#: Requests whose replies depend only on the request.
STEADY_REQUESTS = st.sampled_from([
    {"op": "ping"},
    {"op": "teleport"},
    {"op": "wait", "job_id": "fuzz-nope"},
    {"op": "wait", "job_id": ["not", "a", "string"]},
    {"op": "wait", "job_id": "x", "timeout": "soon"},
    {"op": "submit", "job": {"scheme": "NOPE",
                             "workload": {"kind": "uniform", "size": 5}}},
    {"op": "submit", "job": {"scheme": "TSS", "params": [1, 2],
                             "workload": {"kind": "uniform", "size": 5}}},
    {"op": "kill-worker", "worker": None},
    {"op": "chaos", "plan": [1]},
    {"op": "hello", "tenant": "fuzz"},
])


class _FuzzDaemon(object):
    def __init__(self, daemon: _Daemon) -> None:
        self.daemon = daemon
        self.client = daemon.client("fuzz")
        # A finished job of this tenant: its ``wait`` reply is a
        # stored frame, the same bytes every time.
        self.done_id = self.client.submit(BASE_SPEC)
        self.client.wait(self.done_id, timeout=60.0)

    def connect(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(30.0)
        sock.connect(self.daemon.sock)
        return sock


@pytest.fixture(scope="module")
def fuzz_daemon(tmp_path_factory):
    with _Daemon(tmp_path_factory.mktemp("fuzz"), workers=2) as daemon:
        fuzz = _FuzzDaemon(daemon)
        yield fuzz
        fuzz.client.close()


def _frames(fuzz: _FuzzDaemon, requests) -> list[bytes]:
    docs = [{"op": "hello", "tenant": "fuzz"}] + list(requests) + [
        {"op": "wait", "job_id": fuzz.done_id}]
    return [encode_frame(dict(doc, seq=i)) for i, doc in enumerate(docs)]


class TestChunking:
    @settings(max_examples=40, deadline=None)
    @given(requests=st.lists(STEADY_REQUESTS, max_size=6),
           data=st.data())
    def test_any_chunking_gets_the_same_replies(
        self, fuzz_daemon, requests, data
    ):
        frames = _frames(fuzz_daemon, requests)
        with fuzz_daemon.connect() as sock:
            expected = []
            for frame in frames:
                sock.sendall(frame)
                expected.append(recv_frame(sock))
        blob = b"".join(frames)
        cuts = sorted(data.draw(st.sets(
            st.integers(1, len(blob) - 1), max_size=10)))
        with fuzz_daemon.connect() as sock:
            for lo, hi in zip([0] + cuts, cuts + [len(blob)]):
                sock.sendall(blob[lo:hi])
                time.sleep(0.0005)  # let the daemon read this piece
            got = [recv_frame(sock) for _ in frames]
        assert got == expected
        assert [reply.get("seq") for reply in got] \
            == list(range(len(frames)))


class TestBadFrames:
    def _assert_refused_then_closed(self, fuzz_daemon, bad: bytes):
        with fuzz_daemon.connect() as sock:
            sock.sendall(encode_frame({"op": "ping", "seq": 1}) + bad)
            assert recv_frame(sock) == {"ok": True, "pong": True,
                                        "seq": 1}
            reply = recv_frame(sock)
            assert reply["ok"] is False and reply["error"] == "protocol"
            assert "seq" not in reply
            assert recv_frame(sock) is None  # then the daemon closes
        assert fuzz_daemon.client.ping()  # everyone else is served

    @settings(max_examples=60, deadline=None)
    @given(payload=BAD_PAYLOADS)
    def test_bad_payload_gets_one_protocol_error(
        self, fuzz_daemon, payload
    ):
        self._assert_refused_then_closed(
            fuzz_daemon, struct.pack(">I", len(payload)) + payload)

    @settings(max_examples=10, deadline=None)
    @given(length=st.integers(MAX_FRAME + 1, 2 ** 32 - 1))
    def test_oversized_prefix_gets_one_protocol_error(
        self, fuzz_daemon, length
    ):
        self._assert_refused_then_closed(
            fuzz_daemon, struct.pack(">I", length))

    def test_deep_nesting_gets_one_protocol_error(self, fuzz_daemon):
        payload = b"[" * 100000 + b"]" * 100000
        self._assert_refused_then_closed(
            fuzz_daemon, struct.pack(">I", len(payload)) + payload)

    def test_torn_frame_at_eof_gets_one_protocol_error(self, fuzz_daemon):
        with fuzz_daemon.connect() as sock:
            sock.sendall(encode_frame({"op": "ping"})[:-2])
            sock.shutdown(socket.SHUT_WR)
            reply = recv_frame(sock)
            assert reply["error"] == "protocol"
            assert "mid-frame" in reply["message"]
            assert recv_frame(sock) is None


def _mutated(base, path, value) -> dict:
    spec = json.loads(json.dumps(base))
    node = spec
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return spec


class TestMutatedSpecs:
    @settings(max_examples=80, deadline=None)
    @given(base=st.sampled_from(BASE_SPECS), path=st.sampled_from(PATHS),
           value=JUNK)
    def test_mutated_spec_is_admitted_or_bad_spec(
        self, fuzz_daemon, base, path, value
    ):
        client = fuzz_daemon.client
        reply = client._request(
            {"op": "submit", "job": _mutated(base, path, value)})
        event("admitted" if reply["ok"] else "refused")
        if reply["ok"]:
            waited = client._request({"op": "wait",
                                      "job_id": reply["job_id"],
                                      "timeout": 60.0})
            assert waited["state"] in ("done", "failed"), waited
        else:
            assert reply["error"] == "bad-spec", reply
        assert client.ping()  # the same connection, still served


#: Ops whose reply depends only on the request and the daemon's state:
#: not ``drain`` (it would end the module's daemon), and not
#: ``subscribe`` / ``watch`` / ``submit`` (their own tests below and
#: above).
PLAIN_OPS = sorted(OPS - {"drain", "subscribe", "watch", "submit"})

#: Any frame payload: an op (or junk in its place), a ``seq`` and a
#: few more fields, all drawn from the junk above.
FRAME_PAYLOADS = st.fixed_dictionaries(
    {"op": st.one_of(st.sampled_from(PLAIN_OPS), JUNK)},
    optional={
        "seq": JUNK, "tenant": JUNK, "job_id": JUNK, "timeout": JUNK,
        "worker": JUNK, "plan": JUNK, "time_scale": JUNK, "job": JUNK,
    },
)

_NUMBERS = st.one_of(
    st.integers(min_value=-2, max_value=3),
    st.sampled_from([math.nan, math.inf, 0.5, 1e-9, 1e12, 1e300]),
)
#: Fault plans of every kind, their fields drawn from junk and numbers.
PLANS = st.one_of(
    JUNK,
    st.fixed_dictionaries({
        "events": st.lists(
            st.fixed_dictionaries(
                {"kind": st.sampled_from(
                    ["death", "restart", "delay", "loss", "stall",
                     "spike", "teleport"])},
                optional={
                    "worker": st.one_of(_NUMBERS, JUNK),
                    "at": st.one_of(_NUMBERS, JUNK),
                    "delay": _NUMBERS, "duration": _NUMBERS,
                    "extra_q": _NUMBERS,
                },
            ),
            max_size=3,
        ),
    }, optional={"retry_after": st.one_of(_NUMBERS, JUNK),
                 "seed": JUNK}),
)


def _same_json(a, b) -> bool:
    """Equal as the wire sees them (``NaN`` included)."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _reply_then_ping(fuzz: _FuzzDaemon, request: dict) -> dict:
    """Send ``request`` and a ``ping`` behind it on a fresh connection;
    return the request's one reply once the ping is answered too."""
    with fuzz.connect() as sock:
        sock.sendall(encode_frame(request)
                     + encode_frame({"op": "ping", "seq": "pong"}))
        replies = []
        while True:
            frame = recv_frame(sock)
            assert frame is not None, (
                f"connection dropped; replies so far: {replies}")
            if "watch" in frame:
                continue  # a subscription's pushed stream frame
            if frame.get("seq") == "pong" and replies:
                assert frame == {"ok": True, "pong": True, "seq": "pong"}
                break
            replies.append(frame)
    assert len(replies) == 1, replies
    reply = replies[0]
    if reply["ok"] is not True:
        assert reply["ok"] is False
        assert isinstance(reply["error"], str) and reply["error"], reply
    assert fuzz.client.ping()  # and everyone else is served
    return reply


class TestOtherOps:
    @settings(max_examples=120, deadline=None)
    @given(request=FRAME_PAYLOADS)
    def test_any_frame_payload_gets_one_reply(self, fuzz_daemon, request):
        reply = _reply_then_ping(fuzz_daemon, request)
        if "seq" in request:
            assert _same_json(reply.get("seq"), request["seq"]), reply

    @settings(max_examples=40, deadline=None)
    @given(tenant=st.one_of(JUNK, st.just("*")))
    def test_trace_tenant(self, fuzz_daemon, tenant):
        reply = _reply_then_ping(
            fuzz_daemon, {"op": "trace", "tenant": tenant, "seq": 1})
        assert reply["ok"], reply

    @settings(max_examples=80, deadline=None)
    @given(plan=PLANS, time_scale=st.one_of(_NUMBERS, JUNK))
    def test_chaos_plan_and_time_scale(self, fuzz_daemon, plan,
                                       time_scale):
        reply = _reply_then_ping(fuzz_daemon, {
            "op": "chaos", "plan": plan, "time_scale": time_scale,
            "seq": 1,
        })
        if not reply["ok"]:
            assert reply["error"] == "bad-plan", reply

    @settings(max_examples=40, deadline=None)
    @given(op=st.sampled_from(["subscribe", "watch"]),
           tenant=st.one_of(JUNK, st.just("*")))
    def test_subscribe_filter(self, fuzz_daemon, op, tenant):
        reply = _reply_then_ping(
            fuzz_daemon, {"op": op, "tenant": tenant, "seq": 1})
        assert reply["ok"] and reply["subscribed"], reply

    @settings(max_examples=40, deadline=None)
    @given(worker=st.one_of(_NUMBERS, JUNK))
    def test_kill_worker_slot(self, fuzz_daemon, worker):
        reply = _reply_then_ping(
            fuzz_daemon, {"op": "kill-worker", "worker": worker, "seq": 1})
        if not reply["ok"]:
            assert reply["error"] == "bad-worker", reply

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), timeout=st.one_of(_NUMBERS, JUNK))
    def test_wait_job_id_and_timeout(self, fuzz_daemon, data, timeout):
        job_id = data.draw(st.one_of(
            JUNK, st.just(fuzz_daemon.done_id), st.just("fuzz-999999")))
        reply = _reply_then_ping(fuzz_daemon, {
            "op": "wait", "job_id": job_id, "timeout": timeout, "seq": 1,
        })
        if not reply["ok"]:
            assert reply["error"] in ("bad-timeout", "unknown-job"), reply


class TestFoundByFuzzing:
    """The inputs the suite above found, pinned."""

    @pytest.mark.parametrize("time_scale", [0, -1.5])
    def test_non_positive_chaos_time_scale_is_a_bad_plan(
        self, fuzz_daemon, time_scale
    ):
        # ``inject_chaos`` raised out of the connection handler: no
        # reply, connection dead.
        reply = _reply_then_ping(fuzz_daemon, {
            "op": "chaos", "plan": {}, "time_scale": time_scale, "seq": 1,
        })
        assert reply["error"] == "bad-plan"
        assert "time_scale" in reply["message"]

    @pytest.mark.parametrize("worker", [0.5, 1.0, True])
    def test_a_death_naming_no_slot_schedules_nothing(
        self, fuzz_daemon, worker
    ):
        # A non-int worker was scheduled, and its kill raised later in
        # the loop (``TypeError`` indexing the slots); ``true`` killed
        # slot 1.
        reply = _reply_then_ping(fuzz_daemon, {
            "op": "chaos", "seq": 1, "time_scale": 1e-3, "plan": {
                "events": [{"kind": "death", "worker": worker, "at": 0}]},
        })
        assert reply == {"ok": True, "scheduled": 0, "seq": 1}
