"""Frame codec: framing, caps, incremental decode, both IO styles."""

from __future__ import annotations

import asyncio
import json
import socket
import struct
import threading

import pytest

from repro.obs import events_json
from repro.service.jobs import job_from_spec
from repro.service.protocol import (
    MAX_FRAME,
    FrameDecoder,
    ProtocolError,
    encode_frame,
    frame_payload,
    recv_frame,
    send_frame,
)


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
        payload = ('{"ok":true,"result":%s,"trace":%s}' % (
            result.to_json(), events_json(result.obs_events))).encode()
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
