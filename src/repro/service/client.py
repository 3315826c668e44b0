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
"""

from __future__ import annotations

import socket
import time
from typing import Any, Optional

from ..obs import EventList
from .protocol import ProtocolError, recv_frame, send_frame

__all__ = ["ServiceClient", "ServiceError"]

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
    ) -> dict[str, Any]:
        """Send one request and read its reply.  ``timeout`` (seconds,
        or ``None`` to block) replaces the socket timeout for the read.

        A reply whose ``seq`` is not the request's is an error: it
        answers something else (a late reply to an earlier request, or
        a pushed stream frame), and taking it would shift every later
        reply on this connection by one.
        """
        self._seq += 1
        doc = dict(doc, seq=self._seq)
        send_frame(self._sock, doc)
        reply = (
            recv_frame(self._sock) if timeout is _SOCKET_TIMEOUT
            else self._recv_within(timeout)
        )
        if reply is None:
            raise ProtocolError(
                "daemon closed the connection mid-request"
            )
        if reply.get("seq") != self._seq:
            raise ProtocolError(
                f"reply seq {reply.get('seq')!r} does not answer "
                f"request seq {self._seq}"
            )
        return reply

    def _recv_within(
        self, timeout: Optional[float]
    ) -> Optional[dict[str, Any]]:
        """One frame, read under ``timeout`` instead of the socket
        timeout, which is restored afterwards."""
        saved = self._sock.gettimeout()
        self._sock.settimeout(timeout)
        try:
            return recv_frame(self._sock)
        finally:
            self._sock.settimeout(saved)

    def _checked(
        self, doc: dict[str, Any], timeout: Any = _SOCKET_TIMEOUT
    ) -> dict[str, Any]:
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
    ) -> dict[str, Any]:
        """Block until a job reaches a terminal state; returns its
        payload (``result``, ``digest``, ``state``, ``requeues``,
        optionally ``results`` / ``trace``).

        A shipped ``trace`` arrives as rows (one array of the eleven
        event fields per event) and is returned as an
        :class:`~repro.obs.EventList` over them: ``len`` and
        :func:`~repro.obs.stream_digest` read the rows, and an event
        is built only when the trace is read.

        The daemon answers ``timeout`` after ``timeout`` seconds (none
        given, or 0: it waits for the job), so the read waits that
        long plus :data:`WAIT_MARGIN`, or blocks -- never the socket
        timeout the connection was opened with.
        """
        doc: dict[str, Any] = {"op": "wait", "job_id": job_id}
        if timeout is not None:
            doc["timeout"] = timeout
        reply = self._checked(
            doc, max(timeout, 0.0) + WAIT_MARGIN if timeout else None
        )
        if "trace" in reply:
            reply["trace"] = EventList(reply["trace"])
        return reply

    def run(
        self, job: dict[str, Any], timeout: Optional[float] = None
    ) -> dict[str, Any]:
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

    def subscribe(self, tenant: Optional[str] = None) -> dict[str, Any]:
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
        if timeout is None:
            return recv_frame(self._sock)
        return self._recv_within(timeout)

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
