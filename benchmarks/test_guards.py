"""In-run performance floors, each comparing two arms timed in the
same run (no committed baseline): the fast path beats the DES by the
floor beside each case; the ``adaptive:`` wrapper costs less than 2x
the SS stepper drain it wraps; a watcher adds less than 5% to a daemon
round trip.  ``PYTHONPATH=src python -m pytest benchmarks/test_guards.py``
takes a few seconds; tier-1 does not collect it.  The disabled obs path
is counted, not timed, in ``tests/obs/test_substrates.py``.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.core import make
from repro.decentral import simulate_decentral
from repro.simulation import ClusterSpec, ConstantLoad, NodeSpec, simulate
from repro.workloads import MandelbrotWorkload, UniformWorkload


def _seconds(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _min_of(fn, repeats=5):
    return min(_seconds(fn) for _ in range(repeats))


# -- 1. fast path / DES ------------------------------------------------------

ENGINES = {"master": simulate, "decentral": simulate_decentral}

#: (engine, scheme, reps, floor).  Each floor was set at 0.45-0.65 of
#: the ratio read on a 2-CPU container when it was derived; the ratios
#: read there now (median of 5 readings) are master
#: SS/CSS(4)/FSS/TSS/DTSS 4.1 / 3.9 / 2.4 / 2.1 / 1.9x, decentral
#: SS/CSS(4)/TSS 4.4 / 3.4 / 1.9x; decentral TSS (13 chunks) only has
#: to not lose.  A change that speeds up the DES, the denominator,
#: rescales the floors.
CASES = [
    ("master", "SS", 20, 2.05), ("master", "CSS(4)", 20, 1.6),
    ("master", "FSS", 60, 1.05), ("master", "TSS", 40, 0.9),
    ("master", "DTSS", 40, 0.95), ("decentral", "SS", 20, 2.5),
    ("decentral", "CSS(4)", 20, 1.45), ("decentral", "TSS", 40, 1.0),
]


@pytest.fixture(scope="module")
def window():
    wl = MandelbrotWorkload(width=1000, height=500)
    wl.costs()  # outside the timed region
    return wl


@pytest.fixture(scope="module")
def hetero_cluster():
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
    return _min_of(lambda: [fn() for _ in range(reps)], repeats=3) / reps


@pytest.mark.parametrize("engine,scheme,reps,floor", CASES)
def test_fast_path_beats_the_des(engine, scheme, reps, floor, window,
                                 hetero_cluster):
    def run(fast):
        return ENGINES[engine](scheme, window, hetero_cluster, fast=fast)

    fast, des = run(fast=True), run(fast=False)
    assert fast.t_p == des.t_p
    assert len(fast.chunks) == len(des.chunks)
    fast_s = _per_sim_seconds(lambda: run(fast=True), reps)
    des_s = _per_sim_seconds(lambda: run(fast=False), max(3, reps // 4))
    speedup = des_s / fast_s
    assert speedup >= floor, (
        f"{engine}/{scheme}: fast path only {speedup:.1f}x over the DES "
        f"(floor {floor}x)"
    )


# -- 2. the adaptive wrapper -------------------------------------------------

#: SS: one chunk per iteration, the cheapest step there is -- the worst
#: case for per-chunk wrapper bookkeeping.
ADAPTIVE_WL = UniformWorkload(size=6000, unit=1e-6)
#: One candidate, one stage: decision-equivalent to plain "SS".
DEGENERATE = "adaptive:SS@1"
MULTI = "adaptive:TSS+FSS+GSS@6"
#: Wrapper cost bound, as a share of the plain drain.  Read 1.15-1.26
#: on a 2-CPU container with the arms alternated, 0.1-2.5 back to back.
OVERHEAD = 2.0
UNIFORM = ClusterSpec(
    nodes=[NodeSpec(name=f"n{i}", speed=100.0) for i in range(4)]
)


def _drain(spec):
    step = make(spec, ADAPTIVE_WL.size, 4).stepper(lambda _wid: (1.0, 1))
    chunks = 0
    while step(chunks % 4, None) is not None:
        chunks += 1
    return chunks


def test_degenerate_adaptive_matches_fixed_result():
    """Sanity for the guard below: same chunks, same virtual time."""
    fixed = simulate("SS", ADAPTIVE_WL, UNIFORM, fast=False)
    meta = simulate(DEGENERATE, ADAPTIVE_WL, UNIFORM, fast=False)
    assert meta.t_p == fixed.t_p
    assert [(c.worker, c.start, c.stop) for c in meta.chunks] == [
        (c.worker, c.start, c.stop) for c in fixed.chunks
    ]


def test_adaptive_wrapper_costs_less_than_the_scheme_it_wraps():
    ADAPTIVE_WL.costs()  # outside the timed regions
    assert _drain("SS") == ADAPTIVE_WL.size  # one chunk per iteration
    # The arms alternate, so a slow spell on the host hits both.
    fixed, meta = [], []
    for _ in range(9):
        fixed.append(_seconds(lambda: _drain("SS")))
        meta.append(_seconds(lambda: _drain(DEGENERATE)))
    fixed_drain, meta_drain = min(fixed), min(meta)
    wrapper_cost = max(0.0, meta_drain - fixed_drain)
    des_s = _min_of(lambda: simulate("SS", ADAPTIVE_WL, UNIFORM, fast=False))
    multi_s = _min_of(lambda: simulate(MULTI, ADAPTIVE_WL, UNIFORM,
                                       fast=False))
    assert wrapper_cost < OVERHEAD * fixed_drain, (
        f"adaptive wrapper bookkeeping costs {wrapper_cost:.4f}s over "
        f"{ADAPTIVE_WL.size} chunks -- more than {OVERHEAD:.0%} of the "
        f"{fixed_drain:.4f}s plain drain"
    )
    # the multi-candidate run does real extra work (stage rebuilds,
    # bandit updates) but must stay the same order of magnitude
    assert multi_s < 3.0 * des_s + 0.02


# -- 3. watching a daemon ----------------------------------------------------

def test_streaming_overhead_under_five_percent(tmp_path):
    """The same warm submit + wait, min-of-N, with no subscriber and
    with a watcher streaming the job's chunk events: worker-side
    batching and bounded fan-out queues keep the delta under 5% (plus
    a small absolute slack for jitter on runs this short)."""
    from repro.runtime.config import RuntimeConfig
    from repro.service import ServiceClient
    from repro.service.server import ServiceConfig, ServiceServer

    spec = {
        "scheme": "TSS",
        "workload": {"kind": "uniform", "size": 200, "unit": 1e-4},
        "cluster": {"workers": 3},
    }
    sock = str(tmp_path / "bench.sock")
    server = ServiceServer(ServiceConfig(
        workers=1, socket_path=sock,
        runtime=RuntimeConfig(poll_timeout=0.05, worker_deadline=20.0,
                              heartbeat_interval=0.2, join_timeout=5.0),
        cache_dir=tmp_path / "cache",
    ))
    thread = threading.Thread(
        target=lambda: asyncio.run(server.serve(install_signals=False)),
        daemon=True,
    )
    thread.start()
    client = ServiceClient.connect(sock, tenant="bench",
                                   retry_for=10.0)
    watcher = None
    drainer = None
    try:
        client.run(spec, timeout=120)  # warm the pool + cost cache

        def round_trip():
            assert client.run(spec, timeout=120)["state"] == "done"

        plain = _min_of(round_trip)

        watcher = ServiceClient.connect(sock, tenant="bench")
        watcher.subscribe()

        def drain_frames():
            try:
                while watcher.next_frame(timeout=30.0) is not None:
                    pass
            except Exception:
                pass

        drainer = threading.Thread(target=drain_frames, daemon=True)
        drainer.start()
        streamed = _min_of(round_trip)
    finally:
        try:
            client.drain()
        finally:
            client.close()
            if watcher is not None:
                watcher.close()
        if drainer is not None:
            drainer.join(timeout=10.0)
        thread.join(timeout=30.0)
    assert streamed <= plain * 1.05 + 0.025, (
        f"streaming overhead {streamed - plain:.4f}s on a "
        f"{plain:.4f}s round-trip exceeds the 5% budget"
    )
