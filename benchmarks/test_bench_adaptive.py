"""Bench adaptive: the meta-scheduler wrapper must stay ~free.

The adaptive scheduler's stepper drives a registry sub-scheduler's own
stepper and adds per-chunk bookkeeping (span recording, the speed map)
plus per-stage bandit/tuner work.  On a uniform workload with a single
candidate and a single stage it is *decision-equivalent* to the fixed
scheme it wraps (the unit suite proves the ledgers identical), so the
cost difference is pure wrapper overhead.

The guard is on the **per-chunk wrapper cost** -- min-of-N pure
scheduler drains (no DES) of ``adaptive:SS@1`` vs plain ``SS`` through
``Scheduler.stepper``, the path every substrate takes: 6000 chunk
hand-outs per drain, so the difference is the bookkeeping itself -- as
a share of the plain drain.  SS is the worst case (one chunk per
iteration, and its step is a constant formula: the smallest
denominator there is); every real candidate amortises the same
per-chunk cost over larger chunks.

Both terms are scheduler drains from one session and neither contains
the DES: a ratio to DES time tightens every time the DES gets faster
although the wrapper did not change, and a budget in plain
nanoseconds moves with the host.  Nanoseconds per chunk and the share
of the fixed scheme's DES run are printed for the record.
"""

from __future__ import annotations

import time

from repro.core import make
from repro.simulation import ClusterSpec, NodeSpec, simulate
from repro.workloads import UniformWorkload

#: SS hands out one chunk per iteration: 6000 scheduler round-trips,
#: the worst case for per-chunk wrapper bookkeeping.
WL = UniformWorkload(size=6000, unit=1e-6)
#: Degenerate spec: one candidate, one stage -> same ledger as "SS".
DEGENERATE = "adaptive:SS@1"
MULTI = "adaptive:TSS+FSS+GSS@6"
#: Wrapper bookkeeping bound, as a share of the plain scheme's drain.
#: Measured 0.9-1.2 on a 1-CPU container (~0.27 us a chunk on a
#: ~0.25 us SS step; through ``next_chunk`` the same wrapper cost
#: ~0.64 us a chunk before both were steppers).
OVERHEAD = 2.0


def _cluster(n=4):
    return ClusterSpec(
        nodes=[NodeSpec(name=f"n{i}", speed=100.0) for i in range(n)]
    )


def _min_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _drain(spec):
    step = make(spec, WL.size, 4).stepper(lambda _wid: (1.0, 1))
    chunks = 0
    while step(chunks % 4, None) is not None:
        chunks += 1
    return chunks


def test_degenerate_adaptive_matches_fixed_result():
    """Sanity for the guard below: same chunks, same virtual time."""
    cluster = _cluster()
    fixed = simulate("SS", WL, cluster, fast=False)
    meta = simulate(DEGENERATE, WL, cluster, fast=False)
    assert meta.t_p == fixed.t_p
    assert [(c.worker, c.start, c.stop) for c in meta.chunks] == [
        (c.worker, c.start, c.stop) for c in fixed.chunks
    ]


def test_adaptive_wrapper_costs_less_than_the_scheme_it_wraps(
    bench_record, capsys
):
    cluster = _cluster()
    WL.costs()  # warm the cost cache outside the timed regions
    n_chunks = _drain("SS")
    assert n_chunks == WL.size  # SS really is one chunk per iteration
    fixed_drain = _min_of(lambda: _drain("SS"))
    meta_drain = _min_of(lambda: _drain(DEGENERATE))
    wrapper_cost = max(0.0, meta_drain - fixed_drain)
    des_s = _min_of(lambda: simulate("SS", WL, cluster, fast=False))
    multi_s = _min_of(lambda: simulate(MULTI, WL, cluster, fast=False))
    per_chunk = wrapper_cost / n_chunks
    ratio = wrapper_cost / des_s
    bench_record(
        "adaptive/wrapper-overhead",
        fixed_drain_seconds=round(fixed_drain, 6),
        adaptive_drain_seconds=round(meta_drain, 6),
        per_chunk_seconds=round(per_chunk, 9),
        des_seconds=round(des_s, 6),
        overhead_ratio=round(ratio, 4),
    )
    with capsys.disabled():
        print(
            f"\n[bench adaptive] drain fixed {fixed_drain * 1e3:.1f}ms"
            f"  adaptive {meta_drain * 1e3:.1f}ms  -> wrapper "
            f"{per_chunk * 1e9:.0f}ns/chunk = {ratio:.2%} of the "
            f"{des_s * 1e3:.1f}ms DES run"
        )
    assert wrapper_cost < OVERHEAD * fixed_drain, (
        f"adaptive wrapper bookkeeping costs {wrapper_cost:.4f}s over "
        f"{n_chunks} chunks ({per_chunk * 1e9:.0f}ns/chunk) -- more "
        f"than {OVERHEAD:.0%} of the {fixed_drain:.4f}s plain drain"
    )
    # the multi-candidate run does real extra work (stage rebuilds,
    # bandit updates) but must stay the same order of magnitude
    assert multi_s < 3.0 * des_s + 0.02
