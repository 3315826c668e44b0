"""repro.obs -- unified tracing, metrics, and structured logging.

One span/event model (:class:`ObsEvent`) for the chunk lifecycle
``request -> assign -> compute -> result`` (plus heartbeats, ACP
updates, counter fetch-adds, and fault injections), emitted by all
five execution paths:

* the master--slave simulator (``simulate(..., collector=...)``),
* the TreeS simulator (``simulate_tree(..., collector=...)``),
* the decentral contention simulator
  (``simulate_decentral(..., collector=...)``),
* the real master--worker runtime
  (``run_parallel(..., collector=...)`` -- master-side events plus
  worker-side shard writers merged after the run),
* the decentral counter runtime
  (``run_decentral(..., collector=...)`` -- events ride in the shard
  files).

Because every substrate speaks the same schema, simulator and runtime
traces are directly diffable (:func:`canonical_stream`), one metrics
catalog serves all of them (:func:`metrics_from_events`), and the
trace auditor (:func:`repro.verify.audit_events`) checks any of them.

Typical use::

    from repro import simulate, paper_workload, paper_cluster
    from repro.obs import capture, trace_report
    wl = paper_workload(width=400, height=200)
    with capture() as trace:
        simulate("TSS", wl, paper_cluster(wl), collector=trace)
    print(trace_report(trace.events))

The disabled path is ~free: instrumentation sites gate on a falsy
:class:`NullCollector`, so runs without a collector never construct
an event (guarded, with the gates a chunk passes on each engine, by
``tests/obs/test_substrates.py``).
"""

from .critpath import (
    CATEGORIES,
    ChainLink,
    CritPathReport,
    DriftReport,
    WorkerBreakdown,
    critical_path,
    fastpath_drift,
)
from .collect import (
    NULL,
    BufferedCollector,
    Collector,
    JsonlCollector,
    NullCollector,
    capture,
    resolve,
    sink,
)
from .events import (
    EVENT_KINDS,
    JOB_KINDS,
    LIFECYCLE_KINDS,
    SOURCES,
    EventList,
    ObsEvent,
    SchemaError,
    validate_event,
)
from .export import (
    canonical_stream,
    events_json,
    read_jsonl,
    stream_digest,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from .logutil import (
    ENV_LOG_LEVEL,
    configure_logging,
    get_logger,
    write_artifact,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metrics_from_events,
)
from .report import WorkerSummary, summarize_workers, trace_report
from .timeseries import RollingMetrics, RollingWindow

__all__ = [
    "EVENT_KINDS",
    "JOB_KINDS",
    "LIFECYCLE_KINDS",
    "SOURCES",
    "ENV_LOG_LEVEL",
    "NULL",
    "ObsEvent",
    "EventList",
    "SchemaError",
    "validate_event",
    "Collector",
    "NullCollector",
    "BufferedCollector",
    "JsonlCollector",
    "capture",
    "resolve",
    "sink",
    "to_jsonl",
    "write_jsonl",
    "read_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "canonical_stream",
    "stream_digest",
    "events_json",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metrics_from_events",
    "configure_logging",
    "get_logger",
    "write_artifact",
    "WorkerSummary",
    "summarize_workers",
    "trace_report",
    "RollingWindow",
    "RollingMetrics",
    "CATEGORIES",
    "WorkerBreakdown",
    "ChainLink",
    "CritPathReport",
    "DriftReport",
    "critical_path",
    "fastpath_drift",
]
