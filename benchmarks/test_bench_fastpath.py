"""Bench: analytic fast path vs the discrete-event simulator.

The fault-free benchmark window -- deterministic loads, no chaos, no
collector -- is exactly where million-run sweeps live, and where the
collapsed fast path (:mod:`repro.simulation.fastpath`) replaces the
DES.  Each case times both paths on the quarter-scale Mandelbrot
window, asserts the results are identical (the full bit-identity sweep
lives in ``tests/simulation/test_fastpath.py``; this is the smoke
guard), and records per-sim wall time, sims/sec and the speedup ratio
for the session's ``REPRO_BENCH_OUT`` JSON document.

The in-test floor is deliberately lower than the measured speedups
(master SS and CSS(4) ~3.7x, decentral ~3-4x -- see
``BENCH_baseline.json``): CI containers are noisy, and the regression
guard proper is ``benchmarks/compare_bench.py`` against the committed
baseline.  The ratio's denominator is the DES, so a faster DES lowers
it with the fast path's own ``sims_per_sec`` unmoved: regenerate the
baseline (the CI command with ``REPRO_BENCH_OUT``) and rescale the
floors in the same PR.
"""

from __future__ import annotations

import time

import pytest

from repro.decentral import simulate_decentral
from repro.simulation import ClusterSpec, ConstantLoad, NodeSpec
from repro.simulation.engine import simulate
from repro.workloads import MandelbrotWorkload

#: (scheme, reps, floor).  Chunk-dominated schemes (SS, CSS) carry the
#: headline ratio; short-ladder schemes (TSS: ~30 chunks total) are
#: bounded by fixed per-sim overhead and get proportionally lower
#: floors.  Every floor is 0.45-0.65 of the case's ratio in
#: ``BENCH_baseline.json`` (each case keeps the fraction it was given
#: when first measured), so a noisy runner does not flake, yet the
#: floor stays far above "the fast path is broken"; decentral TSS is
#: 13 chunks of work and only has to not lose.
MASTER_CASES = [
    ("SS", 20, 2.05), ("CSS(4)", 20, 1.6),
    ("FSS", 60, 1.05), ("TSS", 40, 0.9),
]
DECENTRAL_CASES = [
    ("SS", 20, 2.5), ("CSS(4)", 20, 1.45), ("TSS", 40, 1.0),
]


@pytest.fixture(scope="module")
def fast_workload():
    wl = MandelbrotWorkload(width=1000, height=500)
    wl.costs()  # outside the timed region
    return wl


@pytest.fixture(scope="module")
def fast_cluster():
    nodes = [
        NodeSpec(name=f"n{i}", speed=80.0 + 17.0 * i,
                 latency=1e-3 * (1 + i % 3),
                 bandwidth=1.0e6 * (1 + i),
                 load=ConstantLoad(1 + (i % 2)),
                 virtual_power=1.0 + 0.5 * i)
        for i in range(4)
    ]
    return ClusterSpec(nodes=nodes, master_bandwidth=8e6,
                       master_service=2e-4, request_bytes=64.0,
                       reply_bytes=128.0, result_bytes_per_item=40.0)


def _per_sim_seconds(fn, reps):
    """Best-of-3 averaged-over-reps wall time for one simulation."""
    fn()  # warm (cost prefix list, steppers, allocator caches)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter() - t0) / reps)
    return best


def _bench_case(case, run, reps, floor, bench_record, capsys):
    a = run(fast=True)
    b = run(fast=False)
    assert a.t_p == b.t_p and len(a.chunks) == len(b.chunks), case
    fast = _per_sim_seconds(lambda: run(fast=True), reps)
    des = _per_sim_seconds(lambda: run(fast=False),
                           max(3, reps // 4))
    speedup = des / fast
    bench_record(
        case,
        fast_ms=round(fast * 1e3, 4),
        des_ms=round(des * 1e3, 4),
        speedup=round(speedup, 2),
        sims_per_sec=round(1.0 / fast, 1),
    )
    with capsys.disabled():
        print(f"\n{case}: fast {fast * 1e3:.3f}ms "
              f"des {des * 1e3:.3f}ms  {speedup:.1f}x "
              f"({1.0 / fast:.0f} sims/sec)")
    assert speedup >= floor, (
        f"{case}: fast path only {speedup:.1f}x over the DES "
        f"(floor {floor}x)"
    )


@pytest.mark.parametrize("scheme,reps,floor", MASTER_CASES)
def test_bench_fastpath_master(scheme, reps, floor, fast_workload,
                               fast_cluster, bench_record, capsys):
    def run(fast):
        return simulate(scheme, fast_workload, fast_cluster, fast=fast)

    _bench_case(f"master/{scheme}", run, reps, floor, bench_record,
                capsys)


@pytest.mark.parametrize("scheme,reps,floor", DECENTRAL_CASES)
def test_bench_fastpath_decentral(scheme, reps, floor, fast_workload,
                                  fast_cluster, bench_record, capsys):
    def run(fast):
        return simulate_decentral(scheme, fast_workload, fast_cluster,
                                  fast=fast)

    _bench_case(f"decentral/{scheme}", run, reps, floor, bench_record,
                capsys)
