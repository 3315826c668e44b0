"""Tests for the matrix-add load process."""

from __future__ import annotations

import pytest

from repro.workloads import WorkloadError, matrix_add_load


class _FakeEvent(object):
    def __init__(self, fire_after: int = 10**9) -> None:
        self.calls = 0
        self.fire_after = fire_after

    def is_set(self) -> bool:
        self.calls += 1
        return self.calls > self.fire_after


class TestMatrixAddLoad:
    def test_runs_until_event(self):
        rounds = matrix_add_load(_FakeEvent(fire_after=5), size=16)
        assert rounds == 5

    def test_max_rounds_cap(self):
        rounds = matrix_add_load(_FakeEvent(), size=16, max_rounds=3)
        assert rounds == 3

    def test_invalid_size(self):
        with pytest.raises(WorkloadError):
            matrix_add_load(_FakeEvent(), size=0)

