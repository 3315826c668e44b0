"""The capped-backoff connect retry, on a fake clock."""

from __future__ import annotations

import pytest

import repro.service.client as client_mod
from repro.service.client import ServiceClient


class _FakeClock:
    """Deterministic stand-in for the ``time`` module: ``sleep``
    advances ``monotonic`` and records every wait."""

    def __init__(self) -> None:
        self.now = 0.0
        self.sleeps: list = []

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


class TestConnectBackoff:
    def _attempt(self, tmp_path, monkeypatch, retry_for: float,
                 backoff=None):
        """Fail to connect for ``retry_for`` fake seconds, under the
        module's backoff or ``backoff=(initial, ceiling)``."""
        clock = _FakeClock()
        monkeypatch.setattr(client_mod, "time", clock)
        if backoff is not None:
            monkeypatch.setattr(client_mod, "RETRY_INITIAL", backoff[0])
            monkeypatch.setattr(client_mod, "RETRY_MAX", backoff[1])
        missing = str(tmp_path / "no-daemon.sock")
        with pytest.raises(FileNotFoundError):
            ServiceClient.connect(missing, retry_for=retry_for)
        return clock

    def test_default_ladder(self, tmp_path, monkeypatch):
        clock = self._attempt(tmp_path, monkeypatch, retry_for=3.0)
        assert clock.sleeps[:6] == pytest.approx(
            [0.02, 0.04, 0.08, 0.16, 0.32, 0.5]
        )
        assert max(clock.sleeps) == pytest.approx(0.5)

    def test_waits_double_up_to_the_cap(self, tmp_path, monkeypatch):
        clock = self._attempt(
            tmp_path, monkeypatch, retry_for=2.0,
            backoff=(0.05, 0.4),
        )
        assert clock.sleeps[:4] == pytest.approx(
            [0.05, 0.1, 0.2, 0.4]
        )
        # Capped thereafter, never growing past the ceiling.
        assert all(s <= 0.4 + 1e-9 for s in clock.sleeps)

    def test_never_sleeps_past_the_deadline(self, tmp_path,
                                            monkeypatch):
        clock = self._attempt(
            tmp_path, monkeypatch, retry_for=0.12,
            backoff=(0.05, 0.4),
        )
        # 0.05 + 0.07 == deadline: the final wait is clipped to the
        # remaining budget instead of the backoff ladder's 0.1.
        assert sum(clock.sleeps) == pytest.approx(0.12)
        assert clock.sleeps[-1] < 0.1

    def test_no_retry_budget_raises_immediately(self, tmp_path,
                                                monkeypatch):
        clock = self._attempt(tmp_path, monkeypatch, retry_for=0.0)
        assert clock.sleeps == []
