"""Tests for the persistent cost-profile cache (repro.cache) and its
integration with Workload.costs()/cost_key()."""

from __future__ import annotations

import numpy as np
import pytest

from repro import cache
from repro.workloads import (
    MandelbrotWorkload,
    ReorderedWorkload,
    UniformWorkload,
)


@pytest.fixture()
def cache_dir(tmp_path):
    """A fresh active cache in a per-test directory, restored after."""
    previous = cache.get_cache()
    directory = tmp_path / "cost-cache"
    cache.configure(directory=directory)
    yield directory
    cache._active = previous


def fresh_workload() -> MandelbrotWorkload:
    return MandelbrotWorkload(80, 50, max_iter=32)


class TestCostKey:
    def test_deterministic_across_instances(self):
        assert fresh_workload().cost_key() == fresh_workload().cost_key()

    def test_sensitive_to_every_parameter(self):
        base = fresh_workload().cost_key()
        assert MandelbrotWorkload(81, 50, max_iter=32).cost_key() != base
        assert MandelbrotWorkload(80, 51, max_iter=32).cost_key() != base
        assert MandelbrotWorkload(80, 50, max_iter=33).cost_key() != base
        assert MandelbrotWorkload(
            80, 50, max_iter=32, domain=(-2.0, 1.0, -1.0, 1.0)
        ).cost_key() != base

    def test_reordered_key_depends_on_sf(self):
        inner = fresh_workload()
        k4 = ReorderedWorkload(inner, sf=4).cost_key()
        k8 = ReorderedWorkload(inner, sf=8).cost_key()
        assert k4 and k8 and k4 != k8
        assert k4 != inner.cost_key()

    def test_uncacheable_workload_has_no_key(self):
        wl = UniformWorkload(10)
        assert wl.cost_signature() is None
        assert wl.cost_key() is None


class TestColdWarm:
    def test_warm_is_bit_identical_to_cold(self, cache_dir):
        cold = fresh_workload().costs().copy()
        warm_wl = fresh_workload()
        warm = warm_wl.costs()
        assert np.array_equal(cold, warm)
        assert cache.get_cache().hits >= 1

    def test_warm_skips_compute_costs_entirely(self, cache_dir,
                                               monkeypatch):
        fresh_workload().costs()  # populate the cache

        def boom(self):  # pragma: no cover - must not run
            raise AssertionError("_compute_costs ran on a warm cache")

        monkeypatch.setattr(MandelbrotWorkload, "_compute_costs", boom)
        warm = fresh_workload()
        assert warm.costs().size == 80
        assert warm.total_cost() > 0

    def test_cache_survives_process_restart(self, cache_dir):
        cold = fresh_workload().costs().copy()
        # A new CostCache over the same directory models a new process:
        # the memory LRU is empty, only the disk layer remains.
        cache.configure(directory=cache_dir)
        assert cache.get_cache().hits == 0
        warm = fresh_workload().costs()
        assert np.array_equal(cold, warm)
        assert cache.get_cache().hits == 1

    def test_chunk_costs_match_after_cache_load(self, cache_dir):
        a = fresh_workload()
        a.costs()
        b = fresh_workload()
        b.costs()
        for lo, hi in ((0, 80), (10, 20), (79, 80), (5, 5)):
            assert a.chunk_cost(lo, hi) == b.chunk_cost(lo, hi)


class TestRobustness:
    def test_corrupted_file_is_ignored_not_fatal(self, cache_dir):
        wl = fresh_workload()
        wl.costs()
        path = cache.get_cache().path_for(wl.cost_key())
        path.write_bytes(b"this is not a npy file")
        cache.configure(directory=cache_dir)  # drop the memory layer
        recovered = fresh_workload().costs()
        assert np.array_equal(recovered, wl.costs())

    def test_version_mismatch_is_ignored_not_fatal(self, cache_dir,
                                                   monkeypatch):
        wl = fresh_workload()
        expected = wl.costs().copy()
        # Rewrite the entry with a stale version stamp.
        path = cache.get_cache().path_for(wl.cost_key())
        stale = np.concatenate(
            ([cache.CACHE_VERSION + 1, expected.size], expected)
        )
        np.save(path, stale)
        cache.configure(directory=cache_dir)
        assert cache.get_cache().get(wl.cost_key()) is None
        recovered = fresh_workload().costs()
        assert np.array_equal(recovered, expected)

    def test_truncated_payload_is_ignored(self, cache_dir):
        store = cache.get_cache()
        store.put("deadbeef", np.arange(10.0))
        path = store.path_for("deadbeef")
        raw = np.load(path)
        np.save(path, raw[:-3])  # header now disagrees with length
        cache.configure(directory=cache_dir)
        assert cache.get_cache().get("deadbeef") is None

    def test_disabled_cache_never_touches_disk(self, tmp_path):
        previous = cache.get_cache()
        try:
            directory = tmp_path / "disabled"
            cache.configure(directory=directory, enabled=False)
            fresh_workload().costs()
            assert not directory.exists()
        finally:
            cache._active = previous

    def test_poisoned_negative_entry_recomputed(self, cache_dir):
        wl = fresh_workload()
        expected = wl.costs().copy()
        cache.get_cache().put(wl.cost_key(), -np.ones(wl.size))
        cache.configure(directory=cache_dir)
        assert np.array_equal(fresh_workload().costs(), expected)

    @pytest.mark.parametrize("poison", [float("nan"), float("inf")])
    def test_poisoned_non_finite_entry_recomputed(self, cache_dir, poison):
        wl = fresh_workload()
        expected = wl.costs().copy()
        cache.get_cache().put(wl.cost_key(), np.full(wl.size, poison))
        cache.configure(directory=cache_dir)
        assert np.array_equal(fresh_workload().costs(), expected)


class TestLru:
    def test_memory_layer_is_bounded(self, tmp_path):
        previous = cache.get_cache()
        try:
            store = cache.configure(
                directory=tmp_path / "lru", memory_slots=2
            )
            for i in range(5):
                store.put(f"key{i}", np.full(3, float(i)))
            assert len(store._memory) == 2
            # Evicted entries still come back from disk.
            assert np.array_equal(store.get("key0"), np.zeros(3))
        finally:
            cache._active = previous
