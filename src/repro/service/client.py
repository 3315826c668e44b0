"""Blocking client library for the ``repro-service`` daemon.

One :class:`ServiceClient` is one tenant on one connection.  The
protocol is strictly request/response per connection, so a client is
trivially usable from scripts and tests; concurrency across tenants
(the thing the daemon is *for*) comes from opening one client per
tenant -- each gets its own socket, its own FIFO queue in the pool,
and its own obs stream.

Typical use::

    with ServiceClient.connect("/tmp/repro.sock", tenant="alice") as c:
        job_id = c.submit({"scheme": "TSS",
                           "workload": {"kind": "uniform",
                                        "size": 200, "unit": 1e-4}})
        result = c.wait(job_id)
        print(result["digest"], result["result"]["makespan"])

``wait`` returns a :class:`WaitReply`: a read-only mapping that
answers the envelope's members (``state``, ``digest``, ...) at once
and decodes the job's body the first time anything else is read.
"""

from __future__ import annotations

import socket
import time
from collections.abc import Iterator, Mapping
from typing import Any, Callable, Optional, Union, cast

from ..obs import EventList, SchemaError
from .protocol import (ProtocolError, decode_reply, recv_frame,
                       recv_payload, send_frame)

__all__ = ["ServiceClient", "ServiceError", "WaitReply"]

#: Seconds a ``wait(timeout=t)`` reads past ``t``: the daemon answers
#: ``timeout`` at ``t``, and the reply needs time to arrive.
WAIT_MARGIN = 5.0

#: ``_request``'s default: read under the socket's own timeout.
_SOCKET_TIMEOUT = object()

#: :meth:`ServiceClient.connect`'s retry backoff: the first wait after
#: a refused/missing socket, doubled per attempt up to the ceiling.  A
#: client racing a slow daemon start stops burning a connect syscall
#: every few milliseconds, yet still reacts within ``RETRY_INITIAL``
#: when the socket appears quickly.
RETRY_INITIAL = 0.02
RETRY_MAX = 0.5


class ServiceError(RuntimeError):
    """The daemon answered a request with an error reply.

    ``reason`` carries the daemon's machine-readable error code
    (``queue-full``, ``tenant-quota``, ``draining``, ``bad-spec``,
    ``unknown-job``, ``timeout``, ...).
    """

    def __init__(self, reason: str, message: str = "") -> None:
        super().__init__(
            f"{reason}: {message}" if message else reason
        )
        self.reason = reason


def _trace(rows: Any) -> EventList:
    """A shipped trace as an :class:`~repro.obs.EventList`: an array
    of arrays of the eleven event fields, else :class:`ProtocolError`.
    Both checks are C-level passes over the rows (``set(map(...))``):
    once flat, the store cannot tell a row's width."""
    if not isinstance(rows, list) or set(map(type, rows)) - {list}:
        raise ProtocolError("a reply's trace must be an array of arrays")
    try:
        return EventList(rows)
    except SchemaError as exc:
        raise ProtocolError(f"a reply's trace is malformed: {exc}") \
            from None


class WaitReply(Mapping[str, Any]):
    """A finished job's ``wait`` reply: its envelope now, its body
    when read.

    The daemon sends the reply as two frames (see
    :mod:`repro.service.protocol`): the envelope (``job_id``, ``ok``,
    ``state``, ``requeues``, ``seq``, ``digest``), decoded on receipt,
    and the body the pool worker encoded (``events_emitted``,
    ``result``, ``trace``, or ``error``), kept as the received bytes.
    An envelope member is answered from the envelope.  The first read
    of anything else -- a body member, ``in`` on a key the envelope
    lacks, ``len``, iteration, ``==``, ``dict(reply)`` -- decodes the
    body, once, with the codec's tolerant reader; a body that is no
    JSON object raises :class:`ProtocolError` there, and so does a
    shipped ``trace`` that is no array of eleven-field arrays; a good
    one is an :class:`~repro.obs.EventList` holding its rows' fields.

    A :class:`~collections.abc.Mapping`, not a ``dict``: orjson and
    the ``dict`` C API read a subclass's own storage and would miss a
    member not yet decoded.  ``dict(reply)`` gives a ``dict``.  It
    pickles as it stands: undecoded, or decoded.
    """

    __slots__ = ("_head", "_body", "_doc")

    def __init__(
        self, head: dict[str, Any], body: Union[bytes, bytearray]
    ) -> None:
        self._head = head
        #: The body's bytes until they are decoded, then ``None``.
        self._body: Optional[Union[bytes, bytearray]] = body
        #: Every member, once the body is decoded.
        self._doc: Optional[dict[str, Any]] = None

    def _members(self) -> dict[str, Any]:
        doc = self._doc
        if doc is None:
            doc = decode_reply(cast(bytearray, self._body))
            if "trace" in doc:
                doc["trace"] = _trace(doc["trace"])
            doc.update(self._head)
            self._doc, self._body = doc, None
        return doc

    def __getitem__(self, key: str) -> Any:
        head = self._head
        if key in head:
            return head[key]
        return self._members()[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._members())

    def __len__(self) -> int:
        return len(self._members())

    def __repr__(self) -> str:
        return f"WaitReply({self._members()!r})"


class ServiceClient(object):
    """One tenant's blocking connection to a running daemon."""

    def __init__(self, sock: socket.socket, tenant: str = "default") -> None:
        self._sock = sock
        self.tenant = tenant
        self._seq = 0
        self._subscribed = False
        hello = self._request({"op": "hello", "tenant": tenant})
        self.server_info = {
            k: v for k, v in hello.items() if k not in ("ok", "seq")
        }

    # -- construction ------------------------------------------------------

    @classmethod
    def connect(
        cls,
        address: str,
        tenant: str = "default",
        port: Optional[int] = None,
        timeout: float = 30.0,
        retry_for: float = 0.0,
    ) -> "ServiceClient":
        """Connect to a Unix socket path (or host+port when ``port``
        is given).  ``retry_for`` > 0 keeps retrying a refused /
        missing socket for that many seconds -- handy right after
        spawning a daemon -- waiting with the capped exponential
        backoff of ``RETRY_INITIAL`` / ``RETRY_MAX``."""
        deadline = time.monotonic() + retry_for
        delay = RETRY_INITIAL
        while True:
            sock: Optional[socket.socket] = None
            try:
                if port is not None:
                    sock = socket.create_connection(
                        (address, port), timeout=timeout
                    )
                else:
                    sock = socket.socket(socket.AF_UNIX,
                                         socket.SOCK_STREAM)
                    sock.settimeout(timeout)
                    sock.connect(address)
                client, sock = cls(sock, tenant=tenant), None
                return client
            except (ConnectionRefusedError, FileNotFoundError):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise
                # Never sleep past the deadline: the final attempt
                # happens as close to ``retry_for`` as the backoff
                # ladder allows.
                time.sleep(min(delay, remaining))
                delay = min(delay * 2.0, RETRY_MAX)
            finally:
                # A failed attempt (refused, missing, bad hello) closes.
                if sock is not None:
                    sock.close()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- plumbing ----------------------------------------------------------

    def _request(
        self, doc: dict[str, Any], timeout: Any = _SOCKET_TIMEOUT
    ) -> Mapping[str, Any]:
        """Send one request and read its reply.  ``timeout`` (seconds,
        or ``None`` to block) replaces the socket timeout for the read.

        A reply whose ``seq`` is not the request's is an error: it
        answers something else (a late reply to an earlier request, or
        a pushed stream frame), and taking it would shift every later
        reply on this connection by one.  A ``wait`` reply that names
        no ``error`` is a finished job's: its body frame follows, and
        the two make one :class:`WaitReply`.
        """
        self._seq += 1
        doc = dict(doc, seq=self._seq)
        send_frame(self._sock, doc)
        reply = self._read(recv_frame, timeout)
        if reply is None:
            raise ProtocolError(
                "daemon closed the connection mid-request"
            )
        if reply.get("seq") != self._seq:
            raise ProtocolError(
                f"reply seq {reply.get('seq')!r} does not answer "
                f"request seq {self._seq}"
            )
        if doc["op"] != "wait" or "error" in reply:
            return reply
        body = self._read(recv_payload, timeout)
        if body is None:
            raise ProtocolError(
                "daemon closed the connection before the reply's body"
            )
        return WaitReply(reply, body)

    def _read(self, reader: Callable[[socket.socket], Any],
              timeout: Any = _SOCKET_TIMEOUT) -> Any:
        """``reader(sock)``, under ``timeout`` instead of the socket
        timeout, which is restored afterwards (or under the socket
        timeout itself, by default)."""
        if timeout is _SOCKET_TIMEOUT:
            return reader(self._sock)
        saved = self._sock.gettimeout()
        self._sock.settimeout(timeout)
        try:
            return reader(self._sock)
        finally:
            self._sock.settimeout(saved)

    def _checked(
        self, doc: dict[str, Any], timeout: Any = _SOCKET_TIMEOUT
    ) -> Mapping[str, Any]:
        reply = self._request(doc, timeout)
        if not reply.get("ok"):
            raise ServiceError(
                str(reply.get("error", "unknown")),
                str(reply.get("message", "")),
            )
        return reply

    # -- ops ---------------------------------------------------------------

    def ping(self) -> bool:
        return bool(self._checked({"op": "ping"}).get("pong"))

    def submit(self, job: dict[str, Any]) -> str:
        """Submit a wire job spec; returns the job id.

        Raises :class:`ServiceError` with the daemon's backpressure
        reason (``queue-full`` / ``tenant-quota`` / ``draining`` /
        ``bad-spec``) when the job is not admitted.
        """
        return str(
            self._checked({"op": "submit", "job": job})["job_id"]
        )

    def wait(
        self, job_id: str, timeout: Optional[float] = None
    ) -> WaitReply:
        """Block until a job reaches a terminal state; returns its
        reply, a read-only :class:`WaitReply` mapping (``result``,
        ``digest``, ``state``, ``requeues``, ``events_emitted``,
        optionally ``results`` / ``trace``; ``dict(reply)`` for a
        ``dict``).

        ``state`` and ``digest`` are read from the reply's envelope;
        the body (``result``, ``trace``, ...) stays the received bytes
        until one of its members is read, and is decoded then, once.
        A shipped ``trace`` arrives as rows (one array of the eleven
        event fields per event) and is returned as an
        :class:`~repro.obs.EventList` of their fields: ``len`` and
        :func:`~repro.obs.stream_digest` read its flat store, and an
        event is built only when the trace is read.

        The daemon answers ``timeout`` after ``timeout`` seconds (none
        given, or 0: it waits for the job), so the read waits that
        long plus :data:`WAIT_MARGIN`, or blocks -- never the socket
        timeout the connection was opened with.
        """
        doc: dict[str, Any] = {"op": "wait", "job_id": job_id}
        if timeout is not None:
            doc["timeout"] = timeout
        return cast(WaitReply, self._checked(
            doc, max(timeout, 0.0) + WAIT_MARGIN if timeout else None
        ))

    def run(
        self, job: dict[str, Any], timeout: Optional[float] = None
    ) -> WaitReply:
        """submit + wait in one call."""
        return self.wait(self.submit(job), timeout=timeout)

    def status(self) -> dict[str, Any]:
        return self._checked({"op": "status"})["status"]

    def metrics(self) -> dict[str, Any]:
        """The daemon's ``/metrics``-style registry snapshot."""
        return self._checked({"op": "metrics"})["metrics"]

    def trace(self, tenant: Optional[str] = None) -> list[dict]:
        """This tenant's job-level obs events (``tenant='*'`` for the
        merged cross-tenant stream)."""
        doc: dict[str, Any] = {"op": "trace"}
        if tenant is not None:
            doc["tenant"] = tenant
        return list(self._checked(doc)["events"])

    def log(self) -> list[dict]:
        """The pool's append-only job ledger (for audits)."""
        return list(self._checked({"op": "log"})["log"])

    def drain(self) -> None:
        """Ask the daemon to drain (admission closes immediately)."""
        self._checked({"op": "drain"})

    def inject_chaos(
        self, plan_json: dict, time_scale: float = 1.0
    ) -> int:
        """Ship a serialized FaultPlan; returns faults scheduled."""
        return int(
            self._checked(
                {"op": "chaos", "plan": plan_json,
                 "time_scale": time_scale}
            )["scheduled"]
        )

    def kill_worker(self, slot: int) -> bool:
        """SIGKILL one pool slot (chaos hook); True if a live worker
        was hit."""
        return bool(
            self._checked(
                {"op": "kill-worker", "worker": slot}
            )["killed"]
        )

    def subscribe(
        self, tenant: Optional[str] = None
    ) -> Mapping[str, Any]:
        """Turn this connection into a live event stream.

        After this call the daemon pushes ``{"watch": "events", "n":
        ..., "drops": ..., "tenant": ..., "events": [...]}`` frames as
        jobs run; read them with :meth:`next_frame` or iterate
        :meth:`watch` instead of issuing further requests on this
        connection.  ``tenant='*'`` subscribes to every tenant's
        stream; the default is this client's own tenant.
        """
        if self._subscribed:
            raise ServiceError(
                "already-subscribed",
                "this connection is already a stream",
            )
        doc: dict[str, Any] = {"op": "subscribe"}
        doc["tenant"] = tenant if tenant is not None else self.tenant
        reply = self._checked(doc)
        self._subscribed = True
        return reply

    def next_frame(
        self, timeout: Optional[float] = None
    ) -> Optional[dict[str, Any]]:
        """One pushed stream frame (after :meth:`subscribe`).

        Returns ``None`` on a clean end of stream (daemon closed the
        connection).  ``timeout`` overrides the socket timeout for
        this read only; ``socket.timeout`` propagates on expiry.
        """
        return self._read(
            recv_frame, _SOCKET_TIMEOUT if timeout is None else timeout
        )

    def watch(
        self,
        tenant: Optional[str] = None,
        job_id: Optional[str] = None,
        timeout: Optional[float] = None,
    ):
        """Generator over pushed stream frames (subscribes first).

        Yields each ``{"watch": ...}`` frame as a dict.  The stream
        ends (StopIteration) on the daemon's terminal ``{"watch":
        "end"}`` frame, on a clean connection close, or -- when
        ``job_id`` is given -- right after the frame carrying that
        job's terminal ``job-result`` / ``job-reject`` event, which is
        how ``repro-service watch --job`` knows it is done.
        """
        if not self._subscribed:
            self.subscribe(tenant=tenant)
        needle = f"job={job_id}" if job_id is not None else None
        while True:
            frame = self.next_frame(timeout=timeout)
            if frame is None:
                return
            yield frame
            if frame.get("watch") == "end":
                return
            if needle is None:
                continue
            for ev in frame.get("events", ()):
                if ev.get("kind") in ("job-result", "job-reject") \
                        and needle in ev.get("detail", "").split():
                    return
