"""Integration tests for the multiprocessing master--worker runtime."""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import WorkerSpec, run_parallel, run_serial
from repro.workloads import (
    MandelbrotWorkload,
    ReorderedWorkload,
    UniformWorkload,
)

SCHEMES = ["SS", "CSS(8)", "GSS", "TSS", "FSS", "FISS", "TFSS",
           "DTSS", "DFSS", "DFISS", "DTFSS"]


@pytest.fixture(scope="module")
def tiny_mandelbrot():
    return MandelbrotWorkload(60, 40, max_iter=24)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_results_equal_serial(scheme, tiny_mandelbrot):
    run = run_parallel(scheme, tiny_mandelbrot, 3)
    serial, _ = run_serial(tiny_mandelbrot)
    np.testing.assert_array_equal(run.results, serial)
    assert run.requeued == 0


class TestProtocol:
    def test_chunks_cover_loop(self, tiny_mandelbrot):
        run = run_parallel("TSS", tiny_mandelbrot, 3)
        spans = sorted((s, e) for _w, s, e in run.chunks)
        cursor = 0
        for start, stop in spans:
            assert start == cursor
            cursor = stop
        assert cursor == tiny_mandelbrot.size

    def test_stats_collected(self, tiny_mandelbrot):
        run = run_parallel("FSS", tiny_mandelbrot, 2)
        assert set(run.stats) == {0, 1}
        total = sum(s.iterations for s in run.stats.values())
        assert total == tiny_mandelbrot.size

    def test_reordered_workload(self):
        wl = ReorderedWorkload(
            MandelbrotWorkload(48, 32, max_iter=16), sf=4
        )
        run = run_parallel("DTSS", wl, 3)
        serial = wl.execute_serial()
        np.testing.assert_array_equal(
            np.asarray(run.results).reshape(serial.shape), serial
        )

    def test_empty_loop(self):
        run = run_parallel("TSS", UniformWorkload(0), 2)
        assert run.results.size == 0
        assert run.total_chunks == 0

    def test_more_workers_than_iterations(self):
        wl = UniformWorkload(2)
        run = run_parallel("SS", wl, 4)
        assert sum(e - s for _w, s, e in run.chunks) == 2

    def test_invalid_worker_count(self, tiny_mandelbrot):
        with pytest.raises(ValueError):
            run_parallel("TSS", tiny_mandelbrot, 0)


class TestHeterogeneityEmulation:
    def test_slowdown_multiplies_compute_time(self):
        # A slowed worker re-executes each chunk, so its *per-iteration*
        # wall time is a multiple of an unslowed peer's.  (Tiny chunks
        # are round-trip-bound, so we assert on measured compute time,
        # not on how many iterations the scheduler happened to assign.)
        wl = MandelbrotWorkload(64, 256, max_iter=64)
        specs = [WorkerSpec(slowdown=8.0), WorkerSpec()]
        run = run_parallel("CSS(8)", wl, 2, specs=specs)
        per_iter = {
            wid: s.compute_seconds / max(1, s.iterations)
            for wid, s in run.stats.items()
            if s.iterations
        }
        if 0 in per_iter and 1 in per_iter:
            assert per_iter[0] > 2.0 * per_iter[1]

    def test_distributed_scheme_uses_acp(self, tiny_mandelbrot):
        specs = [
            WorkerSpec(virtual_power=3.0),
            WorkerSpec(virtual_power=1.0, run_queue=2),
        ]
        run = run_parallel("DTSS", tiny_mandelbrot, 2, specs=specs)
        first_chunks = {}
        for wid, start, stop in run.chunks:
            first_chunks.setdefault(wid, stop - start)
        # ACPs are 30 vs 5: the strong worker's first chunk is larger.
        # (The weak worker may miss out entirely if the strong one
        # drains the loop before its first request lands -- that is
        # also correct ACP behaviour.)
        if 1 in first_chunks:
            assert first_chunks[0] > first_chunks[1]
        assert 0 in first_chunks

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            WorkerSpec(slowdown=0.5)
        with pytest.raises(ValueError):
            WorkerSpec(virtual_power=0.0)
        with pytest.raises(ValueError):
            WorkerSpec(run_queue=0)


class TestSerial:
    def test_run_serial_times(self, tiny_mandelbrot):
        out, elapsed = run_serial(tiny_mandelbrot)
        assert out.shape == (tiny_mandelbrot.size * 40,)
        assert elapsed >= 0.0
