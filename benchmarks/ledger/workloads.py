"""The six workloads: set-up, one pass of operations, tear-down.

A *runner* executes one workload's operations against ``src/``.  All
runners share one shape so the timed phase (``run.py``) does not know
which workload it drives:

``start()``            bring up whatever the path needs (daemon, pool)
``run_round(lo, hi)``  execute operations ``lo..hi`` of the pass, one
                       at a time (closed loop, one in flight), and
                       return the raw latency of each that succeeded
``stop()``             tear everything down and wait for it
``child_pids()``       live children whose CPU/RSS the run accounts

The first pass a runner executes is the warm-up: it records each
operation's outcome as the reference every later repetition must
reproduce (``failed`` counts the ones that do not).
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

from repro import configure_cache, stream_batch
from repro.obs import stream_digest
from repro.runtime.config import RuntimeConfig
from repro.service import ServiceClient
from repro.service.client import ServiceError
from repro.service.protocol import ProtocolError
from repro.service.server import ServiceConfig, ServiceServer

from host import Tracer
from inputs import Inputs, make_inputs, make_w

#: The SNAPPY timing of benchmarks/test_bench_service.py.
SNAPPY = RuntimeConfig(
    poll_timeout=0.05,
    worker_deadline=20.0,
    heartbeat_interval=0.2,
    join_timeout=5.0,
)

#: Passes per 10 s of ``--seconds`` at the speed of the commit that
#: introduced the ledger.  A fixed table, never a clock: the daemon's
#: ledger and traces grow with every job, so a faster commit must not
#: be made to serve more of them.
PASSES_PER_10S = {
    "sweep_fast": 120,
    "sweep_observed": 8,
    "sweep_des": 100,
    "sweep_fanout": 11,
    "service_small": 44,
    "service_heavy": 10,
}

#: Operations per calibration-bracketed round.
ROUND_OPS = {
    "sweep_fast": 168,
    "sweep_observed": 12,
    "sweep_des": 24,
    "sweep_fanout": 28,
    "service_small": 50,
    "service_heavy": 3,
}

#: ``service_heavy`` polls the daemon's metrics every this many jobs.
METRICS_EVERY = 20


def passes_for(workload: str, seconds: float, quick: bool) -> int:
    count = PASSES_PER_10S[workload] * seconds / 10.0
    if quick:
        count /= 10.0
    return max(2, round(count))


class Runner(object):
    """Shared bookkeeping: reference outcomes and failure counting."""

    def __init__(self, inputs: Inputs, tmp: str, tracer: Tracer) -> None:
        self.inputs = inputs
        self.tmp = tmp
        self.tracer = tracer
        self.ops = inputs.ops_per_pass()
        self.round_ops = ROUND_OPS[inputs.workload]
        #: per-operation outcome of the warm-up pass
        self.ref: list = [None] * self.ops
        self.failed = 0
        self.attempted = 0
        #: results of the warm-up pass, for the output checks
        self.warm: list = [None] * self.ops
        self._warming = True

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def child_pids(self) -> list:
        return []

    def rounds(self) -> list:
        return [
            (lo, min(lo + self.round_ops, self.ops))
            for lo in range(0, self.ops, self.round_ops)
        ]

    def warm_up(self) -> None:
        """One untimed pass: every distinct job once."""
        for lo, hi in self.rounds():
            self.run_round(lo, hi)
        self._warming = False

    def _settle(self, index: int, outcome, kept) -> bool:
        """Record (warm-up) or compare (later) one outcome."""
        self.attempted += 1
        if self._warming:
            self.ref[index] = outcome
            self.warm[index] = kept
            return True
        if outcome != self.ref[index]:
            self.failed += 1
            return False
        return True

    def run_round(self, lo: int, hi: int) -> list:
        raise NotImplementedError


class SweepRunner(Runner):
    """``sweep_fast`` / ``sweep_observed`` / ``sweep_des``: the pass
    through ``stream_batch(n_jobs=1)`` in this process; an observed
    job also pays for its ``stream_digest``."""

    def run_round(self, lo: int, hi: int) -> list:
        jobs = self.inputs.jobs[lo:hi]
        span = self.tracer.span
        latencies = []
        with span("batch.stream_batch", f"round@{lo}"):
            stream = stream_batch(jobs, n_jobs=1)
            t0 = time.perf_counter()
            for offset, result in stream:
                job = jobs[offset]
                digest = None
                if job.collect_events:
                    with span("obs.stream_digest", job.tag):
                        digest = stream_digest(result.obs_events)
                t1 = time.perf_counter()
                if self._settle(
                    lo + offset,
                    (result.t_p, len(result.chunks), digest), result,
                ):
                    latencies.append(t1 - t0)
                t0 = time.perf_counter()
        return latencies


class FanoutRunner(Runner):
    """``sweep_fanout``: the pass through the process fan-out of
    ``stream_batch`` with JSONL persistence, one two-worker executor
    per pass as a user's sweep has.  The pass is streamed in slices
    through that executor (``pool=``) so that a calibration bracket
    can sit at a quiescent point every ~0.15 s.  On one pinned CPU
    this is the *cost of the fan-out path* (process hop, per-job
    pickle, ``to_dict``, flushed JSONL), not parallel speed-up."""

    def __init__(self, inputs: Inputs, tmp: str, tracer: Tracer) -> None:
        super().__init__(inputs, tmp, tracer)
        self.persist = os.path.join(tmp, "sweep.jsonl")
        self._executor: Optional[ProcessPoolExecutor] = None

    def stop(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def run_round(self, lo: int, hi: int) -> list:
        jobs = self.inputs.jobs[lo:hi]
        if lo == 0:
            for path in (self.persist, self.persist + ".manifest.json"):
                if os.path.exists(path):
                    os.unlink(path)
            self._executor = ProcessPoolExecutor(max_workers=2)
        latencies = []
        try:
            with self.tracer.span("batch.stream_batch", f"slice@{lo}"):
                t0 = time.perf_counter()
                for offset, result in stream_batch(
                    jobs, pool=self._executor, persist=self.persist
                ):
                    t1 = time.perf_counter()
                    if self._settle(
                        lo + offset, (result.t_p, len(result.chunks)),
                        result,
                    ):
                        latencies.append(t1 - t0)
                    t0 = time.perf_counter()
        except BaseException:
            self.stop()
            raise
        if hi == self.ops:
            # End of the pass: the executor goes (its workers are
            # waited for, so their CPU lands in RUSAGE_CHILDREN).
            self.stop()
            if not self._warming \
                    and not self.persist_complete(len(jobs)):
                self.failed += 1
        return latencies

    def persist_complete(self, expected: int) -> bool:
        """The last slice's manifest says complete and the JSONL has
        one line per job of the pass."""
        try:
            with open(self.persist + ".manifest.json", "r",
                      encoding="utf-8") as fh:
                manifest = json.load(fh)
            with open(self.persist, "rb") as fh:
                lines = sum(1 for _ in fh)
        except (OSError, ValueError):
            return False
        return (
            manifest == {"total": expected, "done": expected,
                         "complete": True}
            and lines == self.ops
        )


class Daemon(object):
    """An in-process ``ServiceServer`` on a non-daemon thread, one
    pool worker, one blocking client.  No ``repro-service serve``
    subprocess: the daemon's only child is the pool's fork worker."""

    def __init__(self, tmp: str, name: str = "d") -> None:
        self.socket_path = os.path.join(tmp, f"{name}.sock")
        self.server = ServiceServer(ServiceConfig(
            workers=1,
            socket_path=self.socket_path,
            cache_dir=os.path.join(tmp, "cache"),
            runtime=SNAPPY,
        ))
        self.error: Optional[BaseException] = None
        self.thread = threading.Thread(
            target=self._serve, name="ledger-daemon", daemon=False
        )
        self.client: Optional[ServiceClient] = None

    def _serve(self) -> None:
        try:
            asyncio.run(self.server.serve(install_signals=False))
        except BaseException as exc:  # noqa: BLE001 - reported by stop()
            self.error = exc

    def start(self) -> "Daemon":
        self.thread.start()
        self.client = ServiceClient.connect(
            self.socket_path, tenant="bench", retry_for=20.0
        )
        return self

    def worker_pids(self) -> list:
        return [p for p in self.server.pool.worker_pids() if p]

    def stop(self) -> None:
        """Drain, close, join; raises if the daemon thread failed or
        would not end (the process guard then kills its worker)."""
        if self.client is not None:
            try:
                self.client.drain()
            except (ServiceError, ProtocolError, OSError) as exc:
                self.error = self.error or exc
            finally:
                self.client.close()
                self.client = None
        if self.thread.ident is not None:
            self.thread.join(timeout=30.0)
        if self.thread.is_alive():
            raise RuntimeError("ledger daemon thread did not end")
        if self.error is not None:
            raise RuntimeError(f"ledger daemon failed: {self.error!r}")

    def __enter__(self) -> "Daemon":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class ServiceRunner(Runner):
    """``service_small`` / ``service_heavy``: submit -> wait round
    trips over one connection to the in-process daemon."""

    def __init__(self, inputs: Inputs, tmp: str, tracer: Tracer) -> None:
        super().__init__(inputs, tmp, tracer)
        self.daemon = Daemon(tmp)
        self.poll_metrics = inputs.workload == "service_heavy"
        self._since_metrics = 0

    def start(self) -> None:
        self.daemon.start()

    def stop(self) -> None:
        self.daemon.stop()

    def child_pids(self) -> list:
        return self.daemon.worker_pids()

    def run_round(self, lo: int, hi: int) -> list:
        client = self.daemon.client
        span = self.tracer.span
        latencies = []
        for index in range(lo, hi):
            spec = self.inputs.specs[index]
            t0 = time.perf_counter()
            try:
                with span("workload.op", spec["tag"]):
                    with span("service.client.submit", spec["tag"]):
                        job_id = client.submit(spec)
                    with span("service.client.wait", spec["tag"]):
                        reply = client.wait(job_id, timeout=60.0)
            except ServiceError:
                self.attempted += 1
                self.failed += 1
                continue
            t1 = time.perf_counter()
            outcome = (reply.get("state"), reply.get("digest"))
            if reply.get("state") != "done":
                self.attempted += 1
                self.failed += 1
            elif self._settle(index, outcome, reply):
                latencies.append(t1 - t0)
            if self.poll_metrics:
                self._since_metrics += 1
                if self._since_metrics == METRICS_EVERY:
                    self._since_metrics = 0
                    with span("service.client.metrics"):
                        client.metrics()
        return latencies


def make_runner(inputs: Inputs, tmp: str, tracer: Tracer) -> Runner:
    if inputs.service:
        return ServiceRunner(inputs, tmp, tracer)
    if inputs.workload == "sweep_fanout":
        return FanoutRunner(inputs, tmp, tracer)
    return SweepRunner(inputs, tmp, tracer)


def set_up(workload: str, seed: int, tmp: str, tracer: Tracer) -> Runner:
    """Everything between process start and the first timed operation
    that can be repeated: cold private cache, ``W``'s cost profile,
    the inputs, daemon/pool start, one warm-up operation per job."""
    cache_dir = os.path.join(tmp, "cache")
    os.makedirs(cache_dir)
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    configure_cache(directory=cache_dir)
    w = make_w()
    w.costs()
    runner = make_runner(make_inputs(workload, seed, w), tmp, tracer)
    try:
        runner.start()
        runner.warm_up()
    except BaseException:
        runner.stop()
        raise
    return runner
