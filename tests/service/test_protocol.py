"""Frame codec: framing, caps, incremental decode, both IO styles."""

from __future__ import annotations

import asyncio
import json
import math
import socket
import struct
import threading

import orjson
import pytest
from hypothesis import given, strategies as st

from repro.obs import events_json
from repro.obs.export import json_loads
from repro.service.jobs import job_from_spec
from repro.service.protocol import (
    MAX_FRAME,
    FrameDecoder,
    ProtocolError,
    _json_loads,
    encode_frame,
    frame_payload,
    recv_frame,
    send_frame,
)


def _json_writer(doc) -> bytes:
    """The frame payload :mod:`json` writes: sorted keys, compact."""
    return json.dumps(
        doc, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


#: JSON values with what only :mod:`json` writes or reads exactly: NaN
#: and infinities, ints beyond 64 bits, lone surrogates; beside
#: non-ASCII text, ``None`` and int keys.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2 ** 63, 2 ** 64 - 1, 2 ** 64, -2 ** 63 - 1,
                     10 ** 30]),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0,
                     1e-05, 1e16]),
    st.text(max_size=6),
    st.sampled_from(["\ud800", "a\udfff", "\u00e9t\u00e9", "\u2603",
                     "null"]),
)

def _objects(values):
    """Objects keyed by text or by ints (``json`` sorts either)."""
    return st.dictionaries(st.text(max_size=4), values, max_size=4) \
        | st.dictionaries(st.integers(-3, 3), values, max_size=4)


_values = st.recursive(
    _scalars,
    lambda kids: st.lists(kids, max_size=4) | _objects(kids),
    max_leaves=12,
)
_docs = _objects(_values)


def _floats_finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(map(_floats_finite, value.values()))
    if isinstance(value, list):
        return all(map(_floats_finite, value))
    return True


def _reference_payload(doc) -> bytes:
    """The frame payload rule, written out: orjson's sorted bytes when
    they are exact, else a space and :mod:`json`'s."""
    try:
        exact = orjson.dumps(doc, option=orjson.OPT_SORT_KEYS)
    except TypeError:
        exact = None
    if exact is not None and _floats_finite(doc):
        return exact
    return b" " + _json_writer(doc)


class TestEncode:
    def test_roundtrip_layout(self):
        frame = encode_frame({"op": "ping", "seq": 1})
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        assert FrameDecoder().feed(frame) == [{"op": "ping", "seq": 1}]

    def test_payload_is_canonical_json(self):
        # sort_keys + compact separators: identical docs encode
        # identically regardless of insertion order.
        a = encode_frame({"b": 1, "a": 2})
        b = encode_frame({"a": 2, "b": 1})
        assert a == b
        assert b"\n" not in a and b" " not in a[4:]
        # A payload encoded elsewhere is framed to the same bytes.
        assert frame_payload(b'{"a":2,"b":1}') == a

    @given(_docs)
    def test_every_reader_decodes_what_the_json_writer_gives(self, doc):
        """The daemon's :mod:`json` decode of ``encode_frame(doc)``
        equals its decode of :mod:`json`'s own bytes of ``doc``, and so
        does the client's :func:`json_loads`.  Through ``json.dumps``,
        NaN equals NaN.  Byte for byte, the payload is the rule written
        out in :func:`_reference_payload`."""
        payload = encode_frame(doc)[4:]
        want = json.dumps(_json_loads(_json_writer(doc)))
        assert json.dumps(_json_loads(payload)) == want
        assert json.dumps(json_loads(payload)) == want
        assert payload == _reference_payload(doc)

    @pytest.mark.parametrize("doc", [
        {"tenant": "\u00e9t\u00e9", "unit": 1e-05, "n": None,
         "b": [1.5, -0.0, 2 ** 64 - 1]},
        {"z": {"b": 1, "a": [True, "\u2603"]}, "a": 0.1},
    ], ids=["non-ascii-and-null", "nested"])
    def test_exact_docs_are_orjson_bytes(self, doc):
        """Where orjson is exact the payload is its bytes, sorted: raw
        UTF-8, no escapes."""
        payload = encode_frame(doc)[4:]
        assert payload == orjson.dumps(doc, option=orjson.OPT_SORT_KEYS)
        assert json.loads(payload) == doc

    @pytest.mark.parametrize("doc", [
        {"t": float("nan")},
        {"v": [float("inf"), None]},
        {"seq": 2 ** 64},
        {"name": "\ud800"},
        {1: "int key"},
    ], ids=["nan", "inf-beside-null", "int-beyond-64-bits",
            "lone-surrogate", "int-key"])
    def test_the_rest_are_json_bytes_after_a_space(self, doc):
        """What orjson would write wrong or refuses is :mod:`json`'s
        bytes, marked by a leading space for the client's reader; an
        int beyond 64 bits reads back as that int, not a float."""
        payload = encode_frame(doc)[4:]
        assert payload == b" " + _json_writer(doc)
        assert json.dumps(json_loads(payload)) \
            == json.dumps(json.loads(payload))
        if "seq" in doc:
            assert json_loads(payload)["seq"] == 2 ** 64

    def test_a_doc_json_cannot_write_is_refused_alike(self):
        # Int and str keys side by side cannot be sorted.
        doc = {"a": {1: 2, "b": 3}}
        with pytest.raises(TypeError):
            _json_writer(doc)
        with pytest.raises(TypeError):
            encode_frame(doc)

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            encode_frame(["not", "an", "object"])

    def test_rejects_oversized(self):
        with pytest.raises(ProtocolError, match="MAX_FRAME"):
            encode_frame({"pad": "x" * (MAX_FRAME + 1)})
        # The pre-encoded door has the same cap, to the byte.
        room = MAX_FRAME - len('{"pad":""}')
        at_cap = b'{"pad":"%s"}' % (b"x" * room)
        assert frame_payload(at_cap) == encode_frame({"pad": "x" * room})
        with pytest.raises(ProtocolError, match="MAX_FRAME") as pre:
            frame_payload(at_cap + b" ")
        with pytest.raises(ProtocolError, match="MAX_FRAME") as enc:
            encode_frame({"pad": "x" * (room + 1)})
        assert str(pre.value) == str(enc.value)


class TestFrameDecoder:
    def test_byte_at_a_time(self):
        frame = encode_frame({"op": "hello", "tenant": "alice"})
        decoder = FrameDecoder()
        out = []
        for i in range(len(frame)):
            out.extend(decoder.feed(frame[i:i + 1]))
        assert out == [{"op": "hello", "tenant": "alice"}]
        assert decoder.pending_bytes == 0

    def test_many_frames_one_chunk(self):
        docs = [{"n": i} for i in range(5)]
        blob = b"".join(encode_frame(d) for d in docs)
        assert FrameDecoder().feed(blob) == docs

    def test_split_across_chunks_keeps_remainder(self):
        f1 = encode_frame({"n": 1})
        f2 = encode_frame({"n": 2})
        decoder = FrameDecoder()
        assert decoder.feed(f1 + f2[:3]) == [{"n": 1}]
        assert decoder.pending_bytes == 3
        assert decoder.feed(f2[3:]) == [{"n": 2}]

    def test_oversized_length_prefix_rejected_before_buffering(self):
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError, match="MAX_FRAME"):
            decoder.feed(struct.pack(">I", MAX_FRAME + 1))

    def test_undecodable_payload(self):
        bogus = b"\xff\xfe not json"
        frame = struct.pack(">I", len(bogus)) + bogus
        with pytest.raises(ProtocolError, match="undecodable"):
            FrameDecoder().feed(frame)

    def test_non_object_payload(self):
        payload = b"[1,2,3]"
        frame = struct.pack(">I", len(payload)) + payload
        with pytest.raises(ProtocolError, match="JSON object"):
            FrameDecoder().feed(frame)


class TestBlockingSockets:
    def _pair(self):
        return socket.socketpair()

    def test_roundtrip(self):
        a, b = self._pair()
        try:
            send_frame(a, {"op": "ping"})
            assert recv_frame(b) == {"op": "ping"}
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = self._pair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_torn_frame_raises(self):
        a, b = self._pair()
        try:
            frame = encode_frame({"op": "ping"})
            a.sendall(frame[:len(frame) - 2])
            a.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()

    def test_torn_header_raises(self):
        a, b = self._pair()
        try:
            a.sendall(b"\x00\x00")
            a.close()
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_announcement_rejected(self):
        a, b = self._pair()
        try:
            a.sendall(struct.pack(">I", MAX_FRAME + 1))
            with pytest.raises(ProtocolError, match="MAX_FRAME"):
                recv_frame(b)
        finally:
            a.close()
            b.close()


class TestReplyDecoding:
    """``recv_frame`` reads with orjson and answers what ``json.loads``
    would; what orjson refuses goes to ``json``."""

    def _recv(self, payload: bytes):
        a, b = socket.socketpair()
        try:
            # A large frame outgrows the socket buffer: send beside.
            sender = threading.Thread(
                target=a.sendall, args=(frame_payload(payload),))
            sender.start()
            try:
                return recv_frame(b)
            finally:
                sender.join()
        finally:
            a.close()
            b.close()

    @pytest.mark.parametrize("payload", [
        b'{"t":NaN,"v":[Infinity,-Infinity,1.5],"ok":true}',
        b'{"name":"\\ud800","big":1e400,"n":null}',
    ], ids=["non-finite-tokens", "lone-surrogate-and-overflow"])
    def test_frames_orjson_refuses_decode_as_json_does(self, payload):
        doc = self._recv(payload)
        # Through ``json.dumps``, NaN equals NaN.
        assert json.dumps(doc) == json.dumps(json.loads(payload))

    def test_trace_reply_parses_as_json_does(self):
        spec = {"scheme": "SS", "cluster": {"workers": 3},
                "workload": {"kind": "uniform", "size": 1200,
                             "unit": 1e-4}}
        result = job_from_spec(spec).run()
        payload = b'{"ok":true,"result":%s,"trace":%s}' % (
            result.to_json_bytes(), events_json(result.obs_events))
        assert len(payload) > 500_000
        assert self._recv(payload) == json.loads(payload)

    @pytest.mark.parametrize("payload", [
        b"[1, 2]", b"\xff{}", b"[" * 100000 + b"]" * 100000,
    ], ids=["not-an-object", "not-utf8", "deep-nesting"])
    def test_bad_reply_is_a_protocol_error(self, payload):
        with pytest.raises(ProtocolError):
            self._recv(payload)


class TestAsyncioStreams:
    def test_async_and_blocking_interoperate(self, tmp_path):
        """The client library's blocking codec against an asyncio
        ``Protocol`` that feeds a :class:`FrameDecoder` and writes
        :func:`encode_frame` bytes -- the daemon's side of the actual
        production pairing."""
        path = str(tmp_path / "t.sock")

        class Echo(asyncio.Protocol):
            def __init__(self, done):
                self.done = done
                self.decoder = FrameDecoder()

            def connection_made(self, transport):
                self.transport = transport

            def data_received(self, data):
                for doc in self.decoder.feed(data):
                    self.transport.write(encode_frame({"echo": doc}))

            def connection_lost(self, exc):
                self.done.set()

        async def serve_once():
            done = asyncio.Event()
            server = await asyncio.get_running_loop().create_unix_server(
                lambda: Echo(done), path=path)
            ready.set()
            await done.wait()
            server.close()
            await server.wait_closed()

        ready = threading.Event()
        thread = threading.Thread(
            target=lambda: asyncio.run(serve_once()), daemon=True
        )
        thread.start()
        assert ready.wait(5.0)
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(path)
        try:
            send_frame(sock, {"op": "ping", "seq": 9})
            # Two frames in one write come back as two replies.
            sock.sendall(encode_frame({"n": 1}) + encode_frame({"n": 2}))
            assert recv_frame(sock) == {"echo": {"op": "ping", "seq": 9}}
            assert recv_frame(sock) == {"echo": {"n": 1}}
            assert recv_frame(sock) == {"echo": {"n": 2}}
        finally:
            sock.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
