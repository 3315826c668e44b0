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

**One writer.**  Both sides write with :func:`encode_json`, a wrapper
over :mod:`repro.obs.export`'s codec: its exact fast bytes with sorted
keys wherever :func:`json.loads` reads them back as the same value
(``exact_bytes`` under ``FRAME_DOMAIN``, a ``null`` checked by one
``finite`` walk), so non-ASCII text travels as raw UTF-8 and a float
in its shortest round-trip form (``1e-05`` as ``0.00001``).  Elsewhere
the bytes are :mod:`json`'s, sorted and compact, after one space: a
NaN or an infinity, an int beyond 64 bits, a lone surrogate, a
non-``str`` key or a value the fast writer refuses (a numpy scalar,
say).  Either way every reader decodes the same value.

The two sides decode differently.  The daemon reads requests (a few
hundred bytes) with :mod:`json`, whose reading of ``NaN`` or ``1e400``
admission answers with ``bad-spec``.  The fast reader would save
little on so small a frame, and it reads some requests differently: an
int beyond 64 bits comes back as a float (``2**64`` as
``1.8446744073709552e+19``), and a lone surrogate escape is refused.
The client reads replies, up to half a megabyte of trace, with the
codec's one tolerant reader, ``json_loads``: :mod:`json` reads the
frames it wrote (the leading space), the only ones that can hold an
int beyond 64 bits, and the frames the fast reader refuses; either way
the client gets what :func:`json.loads` would return.

**A finished job's** ``wait`` **reply is two frames**, written in one
transport write: an *envelope* (``job_id``, ``ok``, ``state``,
``requeues``, ``seq``, ``digest``), written here, then the job's
*body*, the bytes the pool worker encoded (see
:func:`repro.service.pool._execute_body`), framed as they are: the
daemon never parses them.  Every other reply, a ``wait`` that names an
``error`` included, is one frame.  The client reads the body with
:func:`recv_payload` and keeps it undecoded until a member of it is
read (:class:`repro.service.client.WaitReply`); :func:`decode_reply`
then reads it as :func:`recv_frame` reads a frame.  Admission's bounds
in :mod:`repro.service.jobs` keep every int a body carries within 64
bits.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Callable, Optional, Union

from ..obs.export import (FRAME_DOMAIN, exact_bytes, finite, json_dumps,
                          json_loads)

__all__ = [
    "MAX_FRAME",
    "OPS",
    "ProtocolError",
    "decode_reply",
    "encode_frame",
    "encode_json",
    "frame_payload",
    "FrameDecoder",
    "send_frame",
    "recv_frame",
    "recv_payload",
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
    # run).  ``watch`` is an accepted alias of ``subscribe`` that no
    # code here sends: ``repro-service watch`` goes through
    # ``ServiceClient.subscribe``, which sends ``subscribe``.
    "subscribe", "watch",
})

_LEN = struct.Struct(">I")

#: What a frame's payload arrives as: bytes from the daemon's decoder,
#: one received buffer on the client.
_Payload = Union[bytes, bytearray]


class ProtocolError(ValueError):
    """A frame violated the wire format (length, encoding, or shape)."""


def frame_payload(*payloads: bytes) -> bytes:
    """Length-prefix each already-encoded JSON object and join the
    frames, in one copy.  Raises :class:`ProtocolError` when any
    payload exceeds :data:`MAX_FRAME`.

    A finished job's ``wait`` reply comes this way, as its envelope
    and its body: the body was encoded once, where the job ran, and
    is only framed here.
    """
    parts: list[bytes] = []
    for payload in payloads:
        size = len(payload)
        if size > MAX_FRAME:
            raise ProtocolError(
                f"frame of {size} bytes exceeds MAX_FRAME ({MAX_FRAME})"
            )
        parts += (_LEN.pack(size), payload)
    return b"".join(parts)


def encode_json(doc: Any) -> bytes:
    """Compact JSON bytes of ``doc`` with sorted keys: the frame writer.

    The codec's exact bytes (``exact_bytes`` under ``FRAME_DOMAIN``),
    else ``json.dumps(doc, sort_keys=True, separators=(",", ":"))``'s
    after one space (see the module doc).  The space is JSON
    whitespace, which every reader skips; it tells :func:`recv_frame`
    to read the payload with :mod:`json`, since only such a payload can
    hold an int beyond 64 bits, which the fast reader would read as a
    float.
    """
    data = exact_bytes(doc, FRAME_DOMAIN, finite)
    return b" " + json_dumps(doc, sort_keys=True) if data is None else data


def encode_frame(doc: dict[str, Any]) -> bytes:
    """Serialize one message: 4-byte length prefix + compact JSON
    (:func:`encode_json`)."""
    if not isinstance(doc, dict):
        raise ProtocolError(
            f"frames carry JSON objects, got {type(doc).__name__}"
        )
    return frame_payload(encode_json(doc))


def _json_loads(payload: _Payload) -> Any:
    return json.loads(payload.decode("utf-8"))


def _decode_payload(
    payload: _Payload, loads: Callable[[_Payload], Any] = _json_loads
) -> dict[str, Any]:
    try:
        doc = loads(payload)
    except (ValueError, RecursionError) as exc:
        # ValueError: bad UTF-8, bad JSON, or an int of more digits
        # than :func:`int` converts; RecursionError: nesting deeper
        # than the interpreter's stack.
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


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytearray]:
    """``n`` bytes received straight into one buffer, which is handed
    on: no copy beyond the kernel's.  ``None`` on EOF before the
    first byte."""
    buf = bytearray(n)
    got = 0
    with memoryview(buf) as view:
        while got < n:
            count = sock.recv_into(view[got:])
            if not count:
                if got:
                    raise ProtocolError(
                        f"connection closed mid-frame ({got}/{n} bytes)"
                    )
                return None
            got += count
    return buf


def recv_payload(sock: socket.socket) -> Optional[bytearray]:
    """Read one frame's payload from a blocking socket, undecoded.

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
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ProtocolError("connection closed between header and payload")
    return payload


def decode_reply(payload: _Payload) -> dict[str, Any]:
    """A reply payload's object, read by the codec's tolerant reader
    (``json_loads``); :class:`ProtocolError` when it is none."""
    return _decode_payload(payload, json_loads)


def recv_frame(sock: socket.socket) -> Optional[dict[str, Any]]:
    """Read one frame from a blocking socket and decode it
    (:func:`decode_reply`).

    Returns ``None`` on a clean EOF (peer closed between frames);
    raises :class:`ProtocolError` on a torn frame or oversized length.
    """
    payload = recv_payload(sock)
    return None if payload is None else decode_reply(payload)
