"""Length-prefixed JSON frames: the service's socket transport.

Every message between a client and the daemon is one *frame*: a 4-byte
big-endian unsigned length followed by that many bytes of UTF-8 JSON
(an object at the top level).  Compared to the raw pickled pipes the
in-process runtimes use, frames are:

* **language-neutral** -- any client that can speak JSON over a socket
  can submit jobs;
* **safe** -- no pickle across trust boundaries, and a hard
  :data:`MAX_FRAME` cap so a malformed length prefix cannot make the
  daemon allocate gigabytes;
* **stream-friendly** -- the :class:`FrameDecoder` is incremental, so
  a reader can feed it whatever chunk sizes the socket yields.

Two IO styles speak the identical wire format: :func:`send_frame` /
:func:`recv_frame` for blocking sockets (the client library), and
:func:`encode_frame` / :class:`FrameDecoder` for the daemon, whose
per-connection :class:`asyncio.Protocol` writes whole frames to its
transport and feeds the decoder whatever the socket delivers.

The two sides decode differently.  The daemon reads requests (a few
hundred bytes) with :mod:`json`, whose reading of ``NaN`` or ``1e400``
admission answers with ``bad-spec``.  The client reads replies, up to
half a megabyte of trace, with orjson, and with :mod:`json` only the
frames orjson refuses; either way it gets what :func:`json.loads`
would return.  (orjson would read an int beyond 64 bits as a float;
admission's bounds in :mod:`repro.service.jobs` keep every int a job's
reply carries within 64 bits.)
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Callable, Optional

import orjson

__all__ = [
    "MAX_FRAME",
    "OPS",
    "ProtocolError",
    "encode_frame",
    "frame_payload",
    "FrameDecoder",
    "send_frame",
    "recv_frame",
]

#: Hard upper bound on one frame's JSON payload (bytes).  Large enough
#: for a result carrying a full obs trace, small enough that a bogus
#: length prefix cannot balloon the daemon's memory.
MAX_FRAME = 32 * 1024 * 1024

#: The closed set of wire operations the daemon dispatches.  This is
#: the authoritative list both sides are checked against: the server's
#: ``unknown-op`` reply names it, and ``repro-lint`` rule REP305
#: verifies every ``"op"`` literal in the codebase (client requests
#: and server dispatch arms alike) is a member, so a typo'd op fails
#: static analysis instead of a live round-trip.
OPS = frozenset({
    "hello", "ping", "submit", "wait", "status", "metrics",
    "trace", "log", "drain", "chaos", "kill-worker",
    # Live telemetry: ``subscribe`` turns the connection into an event
    # stream (the daemon pushes chunk-level ObsEvent frames while jobs
    # run); ``watch`` is its client-facing alias used by the CLI.
    "subscribe", "watch",
})

_LEN = struct.Struct(">I")


class ProtocolError(ValueError):
    """A frame violated the wire format (length, encoding, or shape)."""


def frame_payload(payload: bytes) -> bytes:
    """Length-prefix one already-encoded JSON object.

    The daemon's ``wait`` replies come this way: the result was
    encoded once, where it was made, and is only framed here.
    """
    if len(payload) > MAX_FRAME:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds MAX_FRAME "
            f"({MAX_FRAME})"
        )
    return _LEN.pack(len(payload)) + payload


def encode_frame(doc: dict[str, Any]) -> bytes:
    """Serialize one message: 4-byte length prefix + compact JSON."""
    if not isinstance(doc, dict):
        raise ProtocolError(
            f"frames carry JSON objects, got {type(doc).__name__}"
        )
    return frame_payload(json.dumps(
        doc, sort_keys=True, separators=(",", ":")
    ).encode("utf-8"))


def _json_loads(payload: bytes) -> Any:
    return json.loads(payload.decode("utf-8"))


def _reply_loads(payload: bytes) -> Any:
    """:func:`json.loads`'s answer for a reply, by orjson where it
    gives one: orjson refuses ``NaN`` / ``Infinity`` tokens, numbers
    beyond a double's range and lone surrogate escapes, all of which
    :mod:`json` writes and reads."""
    try:
        return orjson.loads(payload)
    except orjson.JSONDecodeError:
        return _json_loads(payload)


def _decode_payload(
    payload: bytes, loads: Callable[[bytes], Any] = _json_loads
) -> dict[str, Any]:
    try:
        doc = loads(payload)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the interpreter's stack.
        raise ProtocolError(f"undecodable frame payload: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got "
            f"{type(doc).__name__}"
        )
    return doc


class FrameDecoder(object):
    """Incremental decoder: feed byte chunks, collect whole frames.

    The decoder never copies more than one frame's worth of buffered
    bytes and raises :class:`ProtocolError` as soon as a length prefix
    exceeds :data:`MAX_FRAME`, before any payload is buffered.

    :meth:`feed` takes bytes and returns every frame they complete;
    :meth:`append` / :meth:`pop` are its two halves, for a reader that
    takes one frame at a time and may leave the rest buffered (the
    daemon, while a ``wait`` holds its connection).
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[dict[str, Any]]:
        """Absorb ``data``; return every frame completed by it."""
        self._buf.extend(data)
        return list(iter(self.pop, None))

    def append(self, data: bytes) -> None:
        """Buffer ``data`` without decoding anything."""
        self._buf.extend(data)

    def pop(self) -> Optional[dict[str, Any]]:
        """The next whole frame buffered, or ``None`` if there is none
        yet; raises :class:`ProtocolError` if that frame is bad."""
        if len(self._buf) < _LEN.size:
            return None
        (length,) = _LEN.unpack_from(self._buf)
        if length > MAX_FRAME:
            raise ProtocolError(
                f"announced frame length {length} exceeds MAX_FRAME "
                f"({MAX_FRAME})"
            )
        end = _LEN.size + length
        if len(self._buf) < end:
            return None
        payload = bytes(self._buf[_LEN.size:end])
        del self._buf[:end]
        return _decode_payload(payload)

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward the next (incomplete) frame."""
        return len(self._buf)


# -- blocking-socket side (client library) --------------------------------


def send_frame(sock: socket.socket, doc: dict[str, Any]) -> None:
    """Write one frame to a blocking socket."""
    sock.sendall(encode_frame(doc))


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    chunks = bytearray()
    while len(chunks) < n:
        part = sock.recv(n - len(chunks))
        if not part:
            if chunks:
                raise ProtocolError(
                    f"connection closed mid-frame ({len(chunks)}/{n} "
                    f"bytes)"
                )
            return None
        chunks.extend(part)
    return bytes(chunks)


def recv_frame(sock: socket.socket) -> Optional[dict[str, Any]]:
    """Read one frame from a blocking socket.

    Returns ``None`` on a clean EOF (peer closed between frames);
    raises :class:`ProtocolError` on a torn frame or oversized length.
    """
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(
            f"announced frame length {length} exceeds MAX_FRAME "
            f"({MAX_FRAME})"
        )
    payload = _recv_exact(sock, length) if length else b""
    if payload is None:
        raise ProtocolError("connection closed between header and payload")
    return _decode_payload(payload, _reply_loads)
