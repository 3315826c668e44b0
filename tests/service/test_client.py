"""ServiceClient reads: per-call timeouts and reply/request pairing.

A scripted peer on one end of a socketpair stands in for the daemon,
so every timing is exact and no job has to run for seconds.
"""

from __future__ import annotations

import gc
import socket
import threading
import time
import warnings

import pytest

import repro.service.client as client_mod
from repro.service import ServiceClient
from repro.service.protocol import ProtocolError, recv_frame, send_frame

#: The connect-time socket timeout every client here is opened with.
SOCKET_TIMEOUT = 0.2


class _Peer(object):
    """Answers each request ``{"ok": true, "seq": <seq + shift>}``
    after ``delays[op]`` seconds, a ``wait`` as a finished job's, with
    a body frame behind it; pushes ``{"watch": "events"}`` frames on
    request."""

    def __init__(self, delays=None, shift=0):
        self.delays = delays or {}
        self.shift = shift
        client_end, self.sock = socket.socketpair()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        client_end.settimeout(SOCKET_TIMEOUT)
        self.client = ServiceClient(client_end, tenant="alice")

    def _serve(self):
        try:
            while True:
                doc = recv_frame(self.sock)
                if doc is None:
                    return
                time.sleep(self.delays.get(doc["op"], 0.0))
                shift = self.shift if doc["op"] != "hello" else 0
                send_frame(self.sock, {
                    "ok": True, "seq": doc["seq"] + shift,
                    "state": "done",
                })
                if doc["op"] == "wait":
                    send_frame(self.sock, {"events_emitted": 0})
        except OSError:
            return  # closed by the test

    def push(self):
        send_frame(self.sock, {"watch": "events", "n": 1, "drops": 0})

    def close(self):
        self.client.close()
        self.sock.close()
        self._thread.join(timeout=5.0)


@pytest.fixture
def peer_factory():
    peers = []

    def make(**kwargs):
        peers.append(_Peer(**kwargs))
        return peers[-1]

    yield make
    for peer in peers:
        peer.close()


class TestWaitTimeout:
    def test_wait_reads_for_its_own_timeout(self, peer_factory):
        # The job outlives the connect-time timeout; the wait asked
        # for 30 s, so its read must not give up at 0.2 s.
        peer = peer_factory(delays={"wait": 3 * SOCKET_TIMEOUT})
        reply = peer.client.wait("alice-000001", timeout=30.0)
        assert reply["state"] == "done"
        assert peer.client._sock.gettimeout() == SOCKET_TIMEOUT

    def test_wait_without_timeout_blocks(self, peer_factory):
        peer = peer_factory(delays={"wait": 3 * SOCKET_TIMEOUT})
        assert peer.client.wait("alice-000001")["state"] == "done"
        assert peer.client._sock.gettimeout() == SOCKET_TIMEOUT

    def test_other_requests_keep_the_socket_timeout(self, peer_factory):
        peer = peer_factory(delays={"ping": 3 * SOCKET_TIMEOUT})
        with pytest.raises(socket.timeout):
            peer.client.ping()

    def test_next_frame_restores_the_socket_timeout(self, peer_factory):
        peer = peer_factory()
        peer.push()
        assert peer.client.next_frame(timeout=5.0)["watch"] == "events"
        assert peer.client._sock.gettimeout() == SOCKET_TIMEOUT


class TestReplyPairing:
    def test_reply_with_a_foreign_seq_is_refused(self, peer_factory):
        peer = peer_factory(shift=1)
        with pytest.raises(ProtocolError, match="seq"):
            peer.client.ping()

    def test_late_reply_cannot_answer_the_next_request(
        self, peer_factory
    ):
        # A read that gave up leaves its reply on the wire; the next
        # request must not take it for its own.
        peer = peer_factory(delays={"wait": 3 * SOCKET_TIMEOUT})
        with pytest.raises(socket.timeout):
            peer.client._request({"op": "wait", "job_id": "j"})
        time.sleep(3 * SOCKET_TIMEOUT)  # the late reply arrives
        with pytest.raises(ProtocolError, match="seq"):
            peer.client.ping()


class TestFailedConnect:
    """Every failed attempt of ``ServiceClient.connect`` closes its
    socket: a retry loop against a missing daemon leaks nothing."""

    @staticmethod
    def _leaks(attempt):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            attempt()
            gc.collect()
        return [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_retrying_a_missing_socket_leaks_nothing(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setattr(client_mod, "RETRY_INITIAL", 0.001)
        monkeypatch.setattr(client_mod, "RETRY_MAX", 0.004)

        def attempt():
            with pytest.raises(FileNotFoundError):
                ServiceClient.connect(str(tmp_path / "absent.sock"),
                                      retry_for=0.05)

        assert self._leaks(attempt) == []

    def test_a_failed_hello_leaks_nothing(self, tmp_path):
        path = str(tmp_path / "mute.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
        listener.listen(1)

        def hang_up():
            conn, _addr = listener.accept()
            conn.close()

        closer = threading.Thread(target=hang_up, daemon=True)
        closer.start()

        def attempt():
            # The peer hung up: the hello fails on its send or its read.
            with pytest.raises((ProtocolError, OSError)):
                ServiceClient.connect(path, timeout=SOCKET_TIMEOUT)

        try:
            assert self._leaks(attempt) == []
        finally:
            closer.join()
            listener.close()
