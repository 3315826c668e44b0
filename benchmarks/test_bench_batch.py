"""Bench batch: the persistent cost cache and run_batch fan-out.

Two perf claims backed here (see ``docs/performance.md``):

* warm cost-profile loads (disk cache, cold process) are orders of
  magnitude cheaper than recomputing the Mandelbrot grid;
* ``run_batch(n_jobs=4)`` over the Figure 4 sweep is bit-identical to
  the serial loop, and on a multi-core host amortises the process
  fan-out (on a single-core CI box the parallel timing only records
  the pool overhead -- the equality assertion is the point there).
"""

from __future__ import annotations

import pytest

from repro import cache
from repro.batch import run_batch
from repro.experiments import figures, paper_workload

# Same reduced window as benchmarks/conftest.py (not importable as a
# module: the benchmark tree is not a package).
BENCH_WIDTH = 1000
BENCH_HEIGHT = 500


@pytest.fixture()
def private_cache(tmp_path):
    """An empty active cache, restored to the previous one after."""
    previous = cache.get_cache()
    store = cache.configure(directory=tmp_path / "bench-cache")
    yield store
    cache._active = previous


def _fresh_workload():
    return paper_workload(width=BENCH_WIDTH, height=BENCH_HEIGHT)


def test_bench_cost_profile_cold(benchmark, private_cache, tmp_path):
    """Full Mandelbrot grid computation: the cost the cache removes."""
    counter = iter(range(10 ** 6))

    def fresh_empty_cache():
        # Every round starts cold: new directory, empty memory layer.
        cache.configure(
            directory=tmp_path / f"cold{next(counter)}"
        )
        return (), {}

    def cold_costs():
        return _fresh_workload().costs()

    costs = benchmark.pedantic(
        cold_costs, setup=fresh_empty_cache, rounds=3, iterations=1,
    )
    assert costs.size == BENCH_WIDTH


def test_bench_cost_profile_warm(benchmark, private_cache):
    """Disk-layer load of the same profile (simulated fresh process)."""
    expected = _fresh_workload().costs()  # prime the disk entry

    def drop_memory_layer():
        private_cache.clear_memory()
        return (), {}

    def warm_costs():
        return _fresh_workload().costs()

    costs = benchmark.pedantic(
        warm_costs, setup=drop_memory_layer, rounds=10, iterations=1,
    )
    assert (costs == expected).all()


def _figure4_grid(workload):
    return figures.speedup_jobs(figures.SIMPLE, True, workload)


def test_bench_figure4_sweep_serial(benchmark, bench_workload):
    grid = _figure4_grid(bench_workload)
    results = benchmark.pedantic(
        run_batch,
        args=([job for _p, _s, job in grid],),
        kwargs=dict(n_jobs=1),
        rounds=3,
        iterations=1,
    )
    assert len(results) == len(grid)


def test_bench_figure4_sweep_parallel(benchmark, bench_workload,
                                      capsys):
    grid = _figure4_grid(bench_workload)
    jobs = [job for _p, _s, job in grid]
    serial = run_batch(jobs, n_jobs=1)
    results = benchmark.pedantic(
        run_batch,
        args=(jobs,),
        kwargs=dict(n_jobs=4),
        rounds=3,
        iterations=1,
    )
    # Every field of every chunk: the pool ships rows, not records.
    assert [r.to_dict() for r in results] \
        == [r.to_dict() for r in serial]
    with capsys.disabled():
        print()
        print("Figure 4 sweep: run_batch(n_jobs=4) == serial "
              f"({len(jobs)} jobs, bit-identical)")
