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
  ``bad-spec``; it never costs the client its connection.

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
