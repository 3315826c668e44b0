"""Per-layer replays: each layer timed from outside, in isolation.

The traced run calls :func:`per_layer` after the timed phase.  Every
layer's public functions are called on inputs taken from the workload's
own pass -- a fixed stride sample of its jobs, reduced to ``(scheme,
workload, cluster)`` triples where a layer needs the job without its
collector, fault plan or shared segment -- so a count repeats exactly
for one seed, and a time is the median of a fixed number of samples
(>= 200 for the microsecond layers; the few-per-run ones -- pool
start, cold cost profile, tree/adaptive/chaos simulations -- take what
fits and say so in README.md).  Every layer group is bracketed by the
calibration loop and reported in reference-speed units like the
end-to-end numbers.

``BENCHMARK.json`` is the single list of names, units and directions;
``run.py`` hands :func:`per_layer` the units from it.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import statistics
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro import SimJob, run_batch, stream_batch
from repro.cache import configure as configure_cache, get_cache
from repro.chaos import FaultPlan
from repro.core import registry
from repro.core.base import SchemeError
from repro.core.kernel import CALCULATORS, evaluate_ladder, make_calculator
from repro.decentral import simulate_decentral
from repro.obs import BufferedCollector, critical_path, stream_digest
from repro.service import ServiceClient
from repro.service.jobs import job_from_spec
from repro.service.pool import JobRecord, WorkerPool
from repro.service.protocol import FrameDecoder, encode_frame
from repro.simulation import simulate, simulate_tree
from repro.verify import audit_events, audit_service_log

import checks
import host
import inputs as inputs_mod
from workloads import SNAPPY, Daemon

#: Jobs of the pass the replays sample (fixed stride, not random).
SAMPLE = 24
#: Samples of a microsecond-scale timing.
MICRO = 200

TRIVIAL_SPEC = {
    "scheme": "TSS",
    "workload": {"kind": "uniform", "size": 8},
    "cluster": {"workers": 2},
}


def _noop() -> None:
    return None


def _clock(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _median_of(fn, samples: int) -> float:
    return statistics.median(_clock(fn) for _ in range(samples))


@dataclasses.dataclass
class Triple(object):
    """One sampled job without collector, fault plan or segment."""

    scheme: str        # a master-engine registry scheme
    pure: str          # a scheme with a pure calculator
    decentral: bool    # the job ran on the decentral engine
    workload: object
    cluster: object

    def fast(self):
        return self._sim(True)

    def des(self, **kwargs):
        return self._sim(False, **kwargs)

    def _sim(self, fast, **kwargs):
        if self.decentral:
            return simulate_decentral(self.pure, self.workload,
                                      self.cluster, fast=fast, **kwargs)
        return simulate(self.scheme, self.workload, self.cluster,
                        fast=fast, **kwargs)


def _triples(jobs) -> list:
    out = []
    for job in jobs:
        try:
            key, _inline = registry.parse(job.scheme)
        except SchemeError:
            key = None  # the tree engine's cosmetic scheme name
        scheme = job.scheme if key in registry.SCHEMES else "TSS"
        pure = job.scheme if key in CALCULATORS else "TSS"
        plain = dataclasses.replace(job.cluster, nodes=[
            dataclasses.replace(node, segment=None, fails_at=None)
            for node in job.cluster.nodes
        ])
        out.append(Triple(scheme, pure, job.engine == "decentral",
                          job.workload, plain))
    return out


# -- layer groups ---------------------------------------------------------
# Each returns {metric: seconds-or-count}; per_layer() normalises the
# time-valued ones by the group's calibration factor and scales to the
# unit the metric's name carries.


def _kernel(ctx) -> dict:
    calcs = [
        make_calculator(t.pure, t.workload.size, t.cluster.size)
        for t in ctx.triples
    ]

    def walk(calc) -> float:
        scheduled = calls = 0
        t0 = time.perf_counter()
        while scheduled < calc.total:
            scheduled += calc.chunk(scheduled)
            calls += 1
        return (time.perf_counter() - t0) / max(1, calls)

    repeats = -(-MICRO // len(calcs))
    return {
        "kernel.chunk_us": statistics.median(
            walk(c) for _ in range(repeats) for c in calcs
        ),
        "kernel.evaluate_ladder_us": statistics.median(
            _clock(lambda c=c: evaluate_ladder(c))
            for _ in range(repeats) for c in calcs
        ),
        "kernel.chunks_per_pass": ctx.chunks_per_pass,
    }


def _registry(ctx) -> dict:
    repeats = -(-MICRO // len(ctx.triples))
    return {
        "registry.parse_us": statistics.median(
            _clock(lambda t=t: registry.parse(t.scheme))
            for _ in range(repeats) for t in ctx.triples
        ),
        "registry.make_us": statistics.median(
            _clock(lambda t=t: registry.make(
                t.scheme, t.workload.size, t.cluster.size))
            for _ in range(repeats) for t in ctx.triples
        ),
    }


def _simulators(ctx) -> dict:
    """fastpath / engine / decentral on every triple; tree, adaptive
    and chaos on the first few (they cost 5-20 ms a run)."""
    triples = ctx.triples
    repeats = -(-MICRO // len(triples))
    fast_t, fast_chunks = [], 0
    for _ in range(repeats):
        for t in triples:
            t0 = time.perf_counter()
            result = t.fast()
            fast_t.append(time.perf_counter() - t0)
            fast_chunks += len(result.chunks)
    des_all, des_t, dec_t, des_chunks = 0.0, [], [], 0
    for _ in range(3):
        for t in triples:
            t0 = time.perf_counter()
            result = t.des()
            took = time.perf_counter() - t0
            des_all += took
            if t.decentral:
                dec_t.append(took)
            else:
                des_t.append(took)
                des_chunks += len(result.chunks)
    # A pass with jobs of one engine only: the other engine runs the
    # same triples.
    if not dec_t:
        dec_t = [
            _clock(lambda t=t: simulate_decentral(
                t.pure, t.workload, t.cluster, fast=False))
            for t in triples[:8]
        ]
    if not des_t:
        for t in triples[:8]:
            t0 = time.perf_counter()
            result = simulate(t.scheme, t.workload, t.cluster,
                              fast=False)
            des_t.append(time.perf_counter() - t0)
            des_chunks += len(result.chunks)
    few = triples[:6]
    tree_t = [
        _clock(lambda t=t: simulate_tree(t.workload, t.cluster))
        for _ in range(3) for t in few
    ]
    adaptive_t, candidates_t = [], []
    for _ in range(3):
        for t in few:
            adaptive_t.append(_clock(lambda: simulate(
                "adaptive:TSS+FSS@8", t.workload, t.cluster, fast=False)))
            candidates_t.append(statistics.mean(
                _clock(lambda s=s: simulate(
                    s, t.workload, t.cluster, fast=False))
                for s in ("TSS", "FSS")
            ))
    chaos_t = []
    for k, t in enumerate(few):
        plan = FaultPlan.random(
            ctx.inputs.seed * 1000 + k, workers=t.cluster.size,
            horizon=max(t.fast().t_p, 1e-6),
        )
        chaos_t += [
            _clock(lambda: simulate(t.scheme, t.workload, t.cluster,
                                    chaos=plan, fast=False))
            for _ in range(3)
        ]
    return {
        "fastpath.sim_us": statistics.median(fast_t),
        "fastpath.us_per_chunk": sum(fast_t) / max(1, fast_chunks),
        "fastpath.eligible_ratio": ctx.eligible_ratio,
        "engine.sim_us": statistics.median(des_t),
        "engine.us_per_chunk": sum(des_t) / max(1, des_chunks),
        # DES over fast on the same triples, each on its own engine.
        "engine.fast_speedup":
            (des_all / 3.0) / (sum(fast_t) / repeats),
        "decentral.sim_us": statistics.median(dec_t),
        "tree.sim_us": statistics.median(tree_t),
        "adaptive.sim_us": statistics.median(adaptive_t),
        "adaptive.overhead_ratio":
            sum(adaptive_t) / sum(candidates_t),
        "chaos.sim_us": statistics.median(chaos_t),
    }


def _obs_and_verify(ctx) -> dict:
    masters = [t for t in ctx.triples if not t.decentral] or ctx.triples
    masters = masters[:12]
    with_t = without_t = 0.0
    streams = []
    for t in masters:
        for _ in range(3):
            collector = BufferedCollector()
            with_t += _clock(lambda: simulate(
                t.scheme, t.workload, t.cluster, fast=False,
                collector=collector))
            without_t += _clock(lambda: simulate(
                t.scheme, t.workload, t.cluster, fast=False))
        streams.append((t, collector.events))

    def per_event(fn) -> float:
        return statistics.median(
            _clock(lambda: fn(t, events)) / len(events)
            for _ in range(3) for t, events in streams
        )

    return {
        "obs.events_per_pass": ctx.events_per_pass,
        "obs.collect_overhead_ratio": with_t / without_t,
        "obs.to_dict_us_per_event": per_event(
            lambda t, evs: [ev.to_dict() for ev in evs]),
        "obs.digest_us_per_event": per_event(
            lambda t, evs: stream_digest(evs)),
        "obs.critpath_us_per_event": per_event(
            lambda t, evs: critical_path(evs)),
        "verify.audit_events_us_per_event": per_event(
            lambda t, evs: audit_events(
                evs, total=t.workload.size, workers=t.cluster.size)),
        "verify.audit_log_us_per_entry": statistics.median(
            _clock(lambda: audit_service_log(ctx.ledger))
            for _ in range(5)
        ) / len(ctx.ledger),
    }


def _batch(ctx) -> dict:
    sample = ctx.sample
    # The sampled jobs on the fast path: the batch layer's fixed costs
    # (run wrapper, to_dict, JSONL) are largest against that work, and
    # a result's size does not depend on which path computed it.
    fast_jobs = [
        SimJob(
            t.pure if t.decentral else t.scheme, t.workload, t.cluster,
            engine="decentral" if t.decentral else "master",
            params={"fast": True}, tag=f"fast/{i}",
        )
        for i, t in enumerate(ctx.triples)
    ]
    results = [job.run() for job in fast_jobs]
    via_job, direct = [], []
    for job, t in zip(fast_jobs, ctx.triples):
        for _ in range(-(-MICRO // len(fast_jobs))):
            via_job.append(_clock(job.run))
            direct.append(_clock(t.fast))
    tiny = job_from_spec(TRIVIAL_SPEC)
    starts, hops = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        with ProcessPoolExecutor(max_workers=2) as executor:
            executor.submit(_noop).result()
            starts.append(time.perf_counter() - t0)
            if not hops:
                hops = [
                    _clock(lambda: list(
                        stream_batch([tiny], pool=executor)))
                    for _ in range(MICRO)
                ]
    local = _median_of(lambda: list(stream_batch([tiny], n_jobs=1)), MICRO)
    path = os.path.join(ctx.tmp, "persist.jsonl")
    few = fast_jobs[:8]
    plain_t, persist_t, resume_t = [], [], []
    for _ in range(3):
        for leftover in (path, path + ".manifest.json"):
            if os.path.exists(leftover):
                os.unlink(leftover)
        plain_t.append(_clock(lambda: run_batch(few, 1)))
        persist_t.append(_clock(
            lambda: run_batch(few, 1, persist=path)))
        resume_t.append(_clock(
            lambda: run_batch(few, 1, persist=path, resume=True)))
    return {
        "batch.key_us": statistics.median(
            _clock(lambda j=j: j.key)
            for _ in range(-(-MICRO // len(sample))) for j in sample
        ),
        "batch.run_overhead_us":
            statistics.median(via_job) - statistics.median(direct),
        "batch.pickle_bytes_per_job": ctx.pickle_bytes_per_job,
        "batch.pickle_us_per_job": statistics.median(
            _clock(lambda j=j: pickle.loads(pickle.dumps(j)))
            for _ in range(-(-MICRO // len(sample))) for j in sample
        ),
        "batch.pool_hop_us": statistics.median(hops) - local,
        "batch.pool_start_ms": statistics.median(starts),
        "batch.to_dict_us": statistics.median(
            _clock(r.to_dict)
            for _ in range(-(-MICRO // len(results))) for r in results
        ),
        "batch.persist_us_per_job":
            (statistics.median(persist_t) - statistics.median(plain_t))
            / len(few),
        "batch.persist_bytes_per_job":
            os.path.getsize(path) / len(few),
        "batch.resume_us_per_job":
            statistics.median(resume_t) / len(few),
    }


def _cache(ctx) -> dict:
    active_dir = get_cache().directory
    cold = []
    try:
        for k in range(3):
            configure_cache(
                directory=os.path.join(ctx.tmp, f"cold{k}"))
            cold.append(_clock(lambda: inputs_mod.make_w().costs()))
        warm = [
            _clock(inputs_mod.make_w().costs) for _ in range(MICRO)
        ]
        cache = get_cache()
        key = ctx.inputs.w.cost_key()
        vec = np.asarray(ctx.inputs.w.costs())
        hit = _median_of(lambda: cache.get(key), MICRO)
        put = _median_of(lambda: cache.put(key, vec), 50)
    finally:
        configure_cache(directory=active_dir)
    return {
        "workloads.costs_cold_ms": statistics.median(cold),
        "workloads.costs_warm_us": statistics.median(warm),
        "cache.get_hit_us": hit,
        "cache.put_us": put,
    }


def _protocol_and_jobs(ctx) -> dict:
    specs = ctx.inputs.specs
    submits = [
        {"op": "submit", "seq": 17 + i, "job": spec}
        for i, spec in enumerate(specs)
    ]
    frames = [encode_frame(doc) for doc in submits]
    # A result frame as the pool worker builds it, with and without
    # the trace, from the longest sampled stream.
    job = max(ctx.sample, key=lambda j: ctx.sample_chunks[j.tag])
    result = dataclasses.replace(job, collect_events=True).run()
    reply = {
        "ok": True, "seq": 18, "job_id": "bench-000001",
        "state": "done", "requeues": 0,
        "digest": stream_digest(result.obs_events),
        "events_emitted": len(result.obs_events),
        "result": result.to_dict(),
    }
    traced = dict(
        reply, trace=[ev.to_dict() for ev in result.obs_events])
    traced_frame = encode_frame(traced)
    decoder = FrameDecoder()
    repeats = -(-MICRO // len(specs))
    return {
        "protocol.encode_us": statistics.median(
            _clock(lambda d=d: encode_frame(d))
            for _ in range(repeats) for d in submits
        ),
        "protocol.decode_us": statistics.median(
            _clock(lambda f=f: decoder.feed(f))
            for _ in range(repeats) for f in frames
        ),
        "protocol.encode_ms_trace": _median_of(
            lambda: encode_frame(traced), 7),
        "protocol.decode_ms_trace": _median_of(
            lambda: decoder.feed(traced_frame), 7),
        "protocol.bytes_submit":
            sum(len(f) for f in frames) / len(frames),
        "protocol.bytes_result": len(encode_frame(reply)),
        "protocol.bytes_trace_result": len(traced_frame),
        "jobs.from_spec_us": statistics.median(
            _clock(lambda s=s: job_from_spec(s))
            for _ in range(repeats) for s in specs
        ),
    }


def _pool(ctx) -> dict:
    """A trivial JobRecord through a bare WorkerPool."""
    done = threading.Event()
    records = []

    def on_complete(record) -> None:
        records.append(record)
        done.set()

    job = job_from_spec(TRIVIAL_SPEC)
    hops = []
    with WorkerPool(size=1, config=SNAPPY,
                    on_complete=on_complete) as pool:
        for i in range(MICRO + 1):
            done.clear()
            t0 = time.perf_counter()
            pool.submit(JobRecord(
                job_id=f"hop-{i}", tenant="bench", job=job))
            if not done.wait(timeout=30.0):
                raise RuntimeError("bare pool lost a trivial job")
            hops.append(time.perf_counter() - t0)
        ledger = list(pool.log)
    hops = hops[1:]  # the first hop pays the worker's imports
    busy = sum(r.finished_at - r.started_at for r in records[1:])
    span = sum(r.finished_at - r.submitted_at for r in records[1:])
    return {
        "pool.hop_us": statistics.median(hops),
        "pool.ledger_entries_per_job": len(ledger) / len(records),
        "pool.worker_busy_share": busy / span,
    }


def metrics_probe(client) -> float:
    """Median seconds of five ``metrics`` ops, right now."""
    return _median_of(client.metrics, 5)


def _service(ctx) -> dict:
    """ping / status / submit / wait / trace / watch / connect through
    a fresh in-process daemon serving the workload's own specs."""
    specs = ctx.inputs.specs
    # Enough jobs for the ledger the daemon keeps to matter.
    rounds = max(1, 32 // len(specs))
    one_shot = statistics.median(
        _clock(lambda s=s: stream_digest(
            job_from_spec(s).run().obs_events))
        for s in specs
    )
    with Daemon(ctx.tmp, name="aux") as daemon:
        client = daemon.client
        path = daemon.socket_path
        client.run(TRIVIAL_SPEC, timeout=60.0)  # worker imports
        first = metrics_probe(client)
        connects = []
        for _ in range(20):
            t0 = time.perf_counter()
            extra = ServiceClient.connect(path, tenant="probe")
            connects.append(time.perf_counter() - t0)
            extra.close()
        ping = _median_of(client.ping, MICRO)
        status = _median_of(client.status, MICRO // 2)
        submits, waits, trips = [], [], []
        for _ in range(rounds):
            for spec in specs:
                t0 = time.perf_counter()
                job_id = client.submit(spec)
                t1 = time.perf_counter()
                reply = client.wait(job_id, timeout=60.0)
                t2 = time.perf_counter()
                if reply.get("state") != "done":
                    raise RuntimeError(f"aux daemon job failed: {reply}")
                submits.append(t1 - t0)
                waits.append(t2 - t1)
                trips.append(t2 - t0)
        few = specs[:8]
        alone = [
            _clock(lambda s=s: client.run(s, timeout=60.0)) for s in few
        ]
        with ServiceClient.connect(path, tenant="bench") as watcher:
            watcher.subscribe()
            watched = [
                _clock(lambda s=s: client.run(s, timeout=60.0))
                for s in few
            ]
        last = metrics_probe(client)
        t0 = time.perf_counter()
        events = client.trace()
        trace_t = time.perf_counter() - t0
    if ctx.inputs.service:
        # The workload's own daemon was probed before and after its
        # timed phase, and its ledger is the one to audit.
        first, last = ctx.metrics_first, ctx.metrics_last
    else:
        ctx.ledger = list(daemon.server.pool.log)
    return {
        "server.ping_us": ping,
        "server.submit_us": statistics.median(submits),
        "server.wait_us": statistics.median(waits),
        "server.status_us": status,
        "server.metrics_us_first": first,
        "server.metrics_us_last": last,
        "server.trace_us_per_event": trace_t / max(1, len(events)),
        "server.watch_overhead_ratio":
            statistics.median(watched) / statistics.median(alone),
        "client.connect_ms": statistics.median(connects),
        "service.overhead_us": statistics.median(trips) - one_shot,
    }


_GROUPS = (
    ("pool", _pool), ("service", _service), ("kernel", _kernel),
    ("registry", _registry), ("simulators", _simulators),
    ("obs_verify", _obs_and_verify), ("batch", _batch),
    ("cache", _cache), ("protocol_jobs", _protocol_and_jobs),
)

_SCALE = {"us": 1e6, "ms": 1e3}
#: Units of values a calibration factor must not touch.
_PLAIN = ("count", "B", "ratio", "x")


@dataclasses.dataclass
class Context(object):
    inputs: object
    tmp: str
    sample: list
    triples: list
    sample_chunks: dict
    chunks_per_pass: int
    events_per_pass: int
    eligible_ratio: float
    pickle_bytes_per_job: float
    ledger: list
    metrics_first: object = None
    metrics_last: object = None


def _context(runner, tmp, pool_log, metrics_first, metrics_last):
    inputs, warm = runner.inputs, runner.warm
    jobs = inputs.jobs
    stride = max(1, len(jobs) // SAMPLE)
    sample = jobs[::stride][:SAMPLE]
    if inputs.service:
        chunks = [len(reply["result"]["chunks"]) for reply in warm]
        events = sum(reply["events_emitted"] for reply in warm)
    else:
        chunks = [len(result.chunks) for result in warm]
        if inputs.workload == "sweep_observed":
            events = sum(len(result.obs_events) for result in warm)
        else:
            events = sum(
                len(dataclasses.replace(job, collect_events=True)
                    .run().obs_events)
                for job in jobs
            )
    refused = sum(checks.fast_refused(job) for job in jobs)
    return Context(
        inputs=inputs, tmp=tmp, sample=sample,
        triples=_triples(sample),
        sample_chunks={
            job.tag: n for job, n in zip(jobs, chunks)
        },
        chunks_per_pass=sum(chunks),
        events_per_pass=events,
        eligible_ratio=1.0 - refused / len(jobs),
        pickle_bytes_per_job=sum(
            len(pickle.dumps(job)) for job in jobs) / len(jobs),
        ledger=pool_log or [],
        metrics_first=metrics_first, metrics_last=metrics_last,
    )


def per_layer(runner, run_dir, tracer, pool_log, units,
              metrics_first=None, metrics_last=None) -> dict:
    """Every per-layer metric except the harness's own four, each in
    the unit ``units`` (name -> unit, from ``BENCHMARK.json``) says."""
    tmp = os.path.join(run_dir, "layers")
    os.makedirs(tmp)
    with tracer.span("layers.context"):
        ctx = _context(runner, tmp, pool_log, metrics_first,
                       metrics_last)
    out = {}
    for name, group in _GROUPS:
        t0 = time.perf_counter()
        with host.bracketed() as factor, \
                tracer.span(f"layers.{name}"):
            values = group(ctx)
        print(f"ledger: layers.{name} took "
              f"{time.perf_counter() - t0:.2f}s", file=sys.stderr)
        for metric, value in values.items():
            unit = units[metric]
            if unit not in _PLAIN:
                value = value / factor[0] * _SCALE[unit]
            out[metric] = value
    return out


def harness_metrics(traced, untraced) -> dict:
    norm = untraced["norm"]
    return {
        "trace.overhead_ratio":
            statistics.median(traced["rates"])
            / statistics.median(untraced["rates"]),
        "host.raw_jobs_per_s": untraced["jobs"] / untraced["raw_wall"],
        "host.calib_ms_p50": norm.calib_ms_p50(),
        "host.calib_spread": norm.calib_spread(),
    }
