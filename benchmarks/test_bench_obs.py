"""Bench obs: the disabled observability path must stay ~free.

Two guards back the "zero-cost off switch" claim in ``repro.obs``,
applied to every simulation substrate (master DES, decentral counter
engine, tree engine):

* **structural** -- a run whose collector is falsy must hand it zero
  events: every emission site gates on the collector's truth, so the
  disabled path pays one truth test and nothing else (counted at the
  sink, because the per-chunk sites build their events with
  :func:`~repro.obs.make_event`, which no ``ObsEvent.__new__`` patch
  sees);
* **timing** -- the summed cost of those truth tests stays under
  ``GATE_NS_PER_CHUNK`` nanoseconds per computed chunk.  The bound
  composes a min-of-N measurement of the gate cost with the run's
  actual event count, which is robust where a direct A/B of two full
  runs would be noise-bound (the gate itself is nanoseconds).

The budget is absolute, not a share of the run: a ratio to DES time
tightens every time the DES gets faster, and fails without one gate
being added.  100 ns is 1% of a ~10 us DES chunk.  It is what lets the
DES hot loop keep unconditional ``if self.observing:`` guards instead
of compiling two variants of every handler.
"""

from __future__ import annotations

import time
import timeit

import pytest

from repro.decentral import simulate_decentral
from repro.obs import BufferedCollector, Collector, capture
from repro.simulation import ClusterSpec, NodeSpec, simulate
from repro.simulation.tree_engine import simulate_tree
from repro.workloads import UniformWorkload

#: Reference run: big enough to dominate per-call overheads.
WL = UniformWorkload(size=4000, unit=1e-6)
#: Disabled-path budget: nanoseconds of gate truth tests per chunk.
#: Measured on the 2-CPU dev host at ~11 ns a gate: tree 22 (2 gates a
#: block), master 45 (4), decentral 57 (5).
GATE_NS_PER_CHUNK = 100.0


def _cluster(n=4):
    return ClusterSpec(
        nodes=[NodeSpec(name=f"n{i}", speed=100.0) for i in range(n)]
    )


#: substrate name -> run(collector) callable, one per sim engine.
SUBSTRATES = {
    # fast=False pins the DES: the fast path is *rejected* when a
    # collector is attached, so the apples-to-apples gate count must
    # come from the engine that actually runs in both modes.
    "master": lambda collector=None: simulate(
        "TSS", WL, _cluster(), collector=collector, fast=False),
    "decentral": lambda collector=None: simulate_decentral(
        "TSS", WL, _cluster(), collector=collector, fast=False),
    "tree": lambda collector=None: simulate_tree(
        WL, _cluster(), weighted=True, grain=4, collector=collector),
}


def _min_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


class _Counting(Collector):
    """Truthy: counts what the emission sites hand it."""

    def __init__(self):
        self.count = 0

    def emit(self, event):
        self.count += 1


class _Disabled(Collector):
    """Falsy like the ``NullCollector``, but an event that reaches it
    is an error, not a no-op."""

    def __bool__(self):
        return False

    def emit(self, event):
        raise AssertionError(f"ungated emission site: {event!r}")


@pytest.mark.parametrize("substrate", sorted(SUBSTRATES))
def test_disabled_path_constructs_no_events(substrate):
    run = SUBSTRATES[substrate]
    # An emission site missing its `if self.observing:` gate raises
    # out of the run.
    run(collector=_Disabled())
    # sanity: the same sites do reach a truthy collector's emit
    counting = _Counting()
    run(collector=counting)
    with capture() as trace:
        run(collector=trace)
    assert counting.count == len(trace.events) > 0


@pytest.mark.parametrize("substrate", sorted(SUBSTRATES))
def test_null_collector_overhead_per_chunk(substrate):
    run = SUBSTRATES[substrate]
    chunks = len(run().chunks)
    # events the run *would* emit = gates the disabled run evaluates
    with capture() as trace:
        run(collector=trace)
    gates = len(trace.events)
    # min-of-N cost of one gate as the engines actually write it:
    # `if self.observing:` on the cached plain bool (set once at
    # construction), not a NullCollector.__bool__ method call.
    sim = type("S", (), {})()
    sim.observing = False
    per_gate = min(
        timeit.repeat("(1 if s.observing else 0)",
                      globals={"s": sim}, number=10_000, repeat=5)
    ) / 10_000
    per_chunk_ns = gates * per_gate / chunks * 1e9
    assert per_chunk_ns < GATE_NS_PER_CHUNK, (
        f"{substrate}: {gates} gates x {per_gate * 1e9:.1f}ns over "
        f"{chunks} chunks = {per_chunk_ns:.0f}ns a chunk exceeds the "
        f"{GATE_NS_PER_CHUNK:.0f}ns budget"
    )


def test_buffered_collection_cost_is_bounded():
    """Collection on is allowed to cost more, but not explode: the
    instrumented run stays within 2x of the disabled run."""
    base = _min_of(lambda: SUBSTRATES["master"]())

    def instrumented():
        SUBSTRATES["master"](collector=BufferedCollector())

    assert _min_of(instrumented) < 2.0 * base + 0.05


def test_streaming_overhead_under_five_percent(tmp_path):
    """Live telemetry must be ~free for the job being watched.

    The same service round-trip (submit + wait over a Unix socket,
    warm pool) is timed min-of-N twice: with no subscriber, and with
    an attached watcher whose jobs stream chunk-level events over the
    wire.  Worker-side batching (64 events/frame, flushed off the hot
    loop) plus the bounded fan-out queues must keep the delta under
    5% -- a watcher observes the schedule, it never slows it.  A
    small absolute slack absorbs scheduler jitter on runs this short.
    """
    import asyncio
    import threading

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
