"""The client's ``wait`` reply: an envelope now, a body when read.

A finished job's ``wait`` reply crosses the wire as two frames, the
envelope and the body the pool worker encoded, and
:class:`~repro.service.client.WaitReply` decodes the body on first
read.  Two properties:

* for every reply shape the daemon sends (done, traced, failed, timed
  out, reply-too-large), every read of the lazy reply equals the same
  read of the eager decode of the same bytes;
* a valid envelope followed by an arbitrary body frame: ``wait``
  returns, a body member reads as its decoded value or raises
  :class:`ProtocolError` (a ``trace`` that is no array of eleven-field
  arrays does, at the first read), and a torn body frame raises
  :class:`ProtocolError` when it is received.

The bytes are replayed to a :class:`ServiceClient` from one end of a
socketpair, so each read meets a reply nothing has decoded yet.
"""

from __future__ import annotations

import contextlib
import json
import pickle
import socket
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import EventList
from repro.obs.export import json_loads
from repro.service import ServiceClient, protocol
from repro.service.client import WaitReply
from repro.service.protocol import (
    ProtocolError,
    encode_frame,
    frame_payload,
    recv_frame,
    recv_payload,
    send_frame,
)

from .test_fuzz import JUNK
from .test_server import PINNED_SPEC, _Daemon

#: The envelope of a finished job's reply, as a replayed wait reads it
#: (``seq`` 2: the request after ``hello``).
ENVELOPE = {"ok": True, "state": "done", "job_id": "alice-000001",
            "requeues": 0, "seq": 2, "digest": "d" * 64}


@contextlib.contextmanager
def _replayed(wire: bytes, eof: bool = False):
    """A client whose peer has already sent a ``hello`` reply and then
    ``wire``; with ``eof``, the peer then shuts its side."""
    client_end, peer = socket.socketpair()
    try:
        peer.sendall(encode_frame({"ok": True, "seq": 1}) + wire)
        if eof:
            peer.shutdown(socket.SHUT_WR)
        client_end.settimeout(10.0)
        with ServiceClient(client_end, tenant="alice") as client:
            yield client
    finally:
        peer.close()


def _eager(wire: bytes) -> dict:
    """The reply decoded at once: the body's object (its trace over an
    ``EventList``) updated with the envelope's."""
    frames = []
    while wire:
        (size,) = struct.unpack_from(">I", wire)
        frames.append(wire[4:4 + size])
        wire = wire[4 + size:]
    envelope, *body = frames
    doc = json_loads(body[0]) if body else {}
    if "trace" in doc:
        doc["trace"] = EventList(doc["trace"])
    doc.update(json_loads(envelope))
    return doc


@pytest.fixture(scope="module")
def wires(tmp_path_factory):
    """The bytes the daemon sends for each reply shape's ``wait``."""
    def ask(daemon, job_id, timeout=None) -> bytes:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(30.0)
            sock.connect(daemon.sock)
            send_frame(sock, {"op": "hello", "tenant": "alice", "seq": 1})
            assert recv_frame(sock)["ok"]
            doc = {"op": "wait", "job_id": job_id, "seq": 2}
            if timeout is not None:
                doc["timeout"] = timeout
            send_frame(sock, doc)
            envelope = recv_payload(sock)
            if "error" in json.loads(envelope):
                return frame_payload(envelope)
            return frame_payload(envelope, recv_payload(sock))

    slow = {"scheme": "SS", "cluster": {"workers": 2},
            "workload": {"kind": "uniform", "size": 12000, "unit": 1e-4}}
    with _Daemon(tmp_path_factory.mktemp("wait-reply"), workers=1) as d, \
            d.client("alice") as c:
        done = c.submit(dict(PINNED_SPEC, trace=False))
        traced = c.submit(PINNED_SPEC)
        failed = c.submit(dict(PINNED_SPEC, params={"no_such_kwarg": 1}))
        for job_id in (done, traced, failed):
            c._request({"op": "wait", "job_id": job_id})
        running = c.submit(slow)
        found = {
            "done": ask(d, done),
            "traced": ask(d, traced),
            "failed": ask(d, failed),
            "timed-out": ask(d, running, timeout=0.01),
        }
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(protocol, "MAX_FRAME", 1024)
            found["reply-too-large"] = ask(d, traced)
        c.wait(running, timeout=60.0)
    return found


def _trace_rows(value):
    return [list(ev) for ev in value] if isinstance(value, EventList) \
        else value


#: Every read of a reply ``r`` whose eager twin is ``e``.
READS = {
    "getitem": lambda r, e: [r[key] for key in e],
    "get": lambda r, e: (r.get("result"), r.get("state"),
                         r.get("nope", 7)),
    "in": lambda r, e: [key in r for key in (*e, "nope")],
    "eq": lambda r, e: r == e,
    "eq-reflected": lambda r, e: e == r,
    "keys": lambda r, e: list(r.keys()),
    "items": lambda r, e: list(r.items()),
    "values": lambda r, e: list(r.values()),
    "len": lambda r, e: len(r),
    "iter": lambda r, e: list(iter(r)),
    "dict": lambda r, e: dict(r),
    "splat": lambda r, e: {**r},
    "json": lambda r, e: json.dumps(dict(r), sort_keys=True,
                                    default=_trace_rows),
    "pickle": lambda r, e: pickle.loads(pickle.dumps(r)),
}


@pytest.mark.parametrize("read", sorted(READS))
@pytest.mark.parametrize(
    "shape", ["done", "traced", "failed", "timed-out", "reply-too-large"])
def test_every_read_equals_the_eager_decode(wires, shape, read):
    """Each read meets a reply nothing has decoded yet."""
    wire = wires[shape]
    eager = _eager(wire)
    with _replayed(wire) as client:
        lazy = client._request({"op": "wait", "job_id": "j"})
    has_body = shape in ("done", "traced", "failed")
    assert ("error" in eager) != (shape in ("done", "traced"))
    assert isinstance(lazy, WaitReply) == has_body
    if has_body:
        assert lazy._doc is None
    assert READS[read](lazy, eager) == READS[read](eager, eager)


def test_a_timed_out_wait_and_a_too_large_reply_carry_no_body(wires):
    for shape in ("timed-out", "reply-too-large"):
        envelope = json.loads(wires[shape][4:])
        assert envelope["ok"] is False and "error" in envelope
    assert json.loads(wires["reply-too-large"][4:])["digest"] \
        == _eager(wires["traced"])["digest"]


# -- an arbitrary body behind a valid envelope -----------------------------

#: Body members drawn from the fuzz module's junk, under the names a
#: body has and the envelope's.
BODY_OBJECTS = st.dictionaries(
    st.sampled_from(["events_emitted", "result", "trace", "error",
                     "digest", "state", "other"]),
    JUNK, max_size=4,
).map(lambda doc: json.dumps(doc).encode("utf-8"))
#: Traces of rows of every width near eleven, a non-array row now and
#: then: the flat store cannot tell a row's width, so the reader must.
TRACE_ROWS = st.lists(
    st.one_of(
        st.integers(min_value=9, max_value=13).flatmap(
            lambda width: st.lists(JUNK, min_size=width, max_size=width)),
        JUNK,
    ),
    max_size=4,
)
TRACE_BODIES = st.fixed_dictionaries(
    {"trace": TRACE_ROWS}, optional={"events_emitted": JUNK},
).map(lambda doc: json.dumps(doc).encode("utf-8"))
BODIES = st.one_of(
    BODY_OBJECTS,
    TRACE_BODIES,
    st.binary(max_size=64),
    JUNK.map(lambda doc: json.dumps(doc).encode("utf-8")),
)


def _same(a, b) -> bool:
    """Equal as JSON values (a NaN equals a NaN)."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _good_trace(rows) -> bool:
    """An array of arrays of the eleven event fields."""
    return isinstance(rows, list) and all(
        isinstance(row, list) and len(row) == 11 for row in rows)


def _wire(body: bytes) -> bytes:
    return frame_payload(json.dumps(ENVELOPE).encode("utf-8"), body)


class TestArbitraryBody:
    @settings(max_examples=150, deadline=None)
    @given(body=BODIES)
    def test_a_member_reads_decoded_or_refused(self, body):
        try:
            doc = json.loads(body.decode("utf-8"))
        except ValueError:
            doc = None
        with _replayed(_wire(body)) as client:
            reply = client.wait(ENVELOPE["job_id"])
        assert reply["state"] == "done"  # the envelope reads as sent
        for key in ("events_emitted", "result", "trace", "error",
                    "digest", "other"):
            try:
                value = reply.get(key)
            except ProtocolError:
                assert not isinstance(doc, dict) or (
                    key != "digest"
                    and not _good_trace(doc.get("trace", [])))
                continue
            if key in ENVELOPE:
                assert value == ENVELOPE[key]
            elif key == "trace" and value is not None:
                assert _same(value.rows(), doc["trace"])
            else:
                assert _same(value, doc.get(key))

    @settings(max_examples=60, deadline=None)
    @given(body=BODIES, data=st.data())
    def test_a_torn_body_frame_is_refused_when_received(self, body, data):
        wire = _wire(body)
        cut = data.draw(st.integers(len(wire) - len(body) - 4,
                                    len(wire) - 1))
        with _replayed(wire[:cut], eof=True) as client:
            with pytest.raises(ProtocolError):
                client.wait(ENVELOPE["job_id"])
