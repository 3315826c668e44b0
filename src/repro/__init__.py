"""repro -- loop self-scheduling for heterogeneous clusters.

A from-scratch Python reproduction of Chronopoulos, Andonie, Benche &
Grosu, *A Class of Loop Self-Scheduling for Heterogeneous Clusters*
(IEEE CLUSTER 2001):

* :mod:`repro.core` -- every self-scheduling scheme in the paper
  (S, SS, CSS, GSS, TSS, FSS, FISS, the new TFSS, Weighted Factoring,
  Tree Scheduling) and the distributed ACP-aware family (DTSS with the
  paper's improvements, plus the new DFSS, DFISS, DTFSS);
* :mod:`repro.workloads` -- the Mandelbrot column workload, the
  Sec. 2.1 synthetic loop styles, and sampling-based loop reordering;
* :mod:`repro.simulation` -- a deterministic discrete-event simulator
  of a heterogeneous master--slave cluster (the stand-in for the
  paper's Sun workstation testbed);
* :mod:`repro.runtime` -- a real multiprocessing master--worker engine
  (the stand-in for MPI);
* :mod:`repro.decentral` -- the master-less substrate: pure chunk
  calculators, a SIGKILL-safe shared-counter runtime
  (``run_decentral``) and a counter-contention simulator
  (``simulate_decentral``), with a hierarchical (MPI+MPI-style)
  leased mode;
* :mod:`repro.analysis` -- chunk traces, balance metrics, speedup;
* :mod:`repro.experiments` -- regenerates every table and figure;
* :mod:`repro.batch` -- process-parallel fan-out of independent
  simulation jobs (``run_batch``);
* :mod:`repro.obs` -- the unified observability layer: one span/event
  model for the chunk lifecycle emitted by every substrate, metrics,
  JSONL / Chrome-trace exporters, structured logging;
* :mod:`repro.verify` -- the trace invariant auditor
  (``audit_sim`` / ``audit_run`` / ``audit_events``);
* :mod:`repro.cache` -- the persistent, content-addressed cost-profile
  cache behind ``Workload.costs()``.

Quick start::

    from repro import make, drain
    sched = make("TFSS", total=1000, workers=4)
    print([c.size for c in drain(sched)])

    from repro import simulate, paper_workload, paper_cluster
    wl = paper_workload(width=800, height=400)
    res = simulate("DTSS", wl, paper_cluster(wl))
    print(res.summary())

Capture the unified event stream from any substrate -- the same
schema whether the run is simulated or real::

    import repro.obs
    from repro import simulate, run_decentral

    with repro.obs.capture() as trace:
        simulate("TSS", wl, paper_cluster(wl), collector=trace)
    print(repro.obs.trace_report(trace.events))
    print(repro.obs.stream_digest(trace.events))  # substrate-agnostic

    from repro import audit_events
    audit_events(trace.events, scheme="TSS").raise_if_failed()
"""

from .batch import SimJob, run_batch, stream_batch
from .cache import CostCache, configure as configure_cache, get_cache
from .chaos import FaultPlan
from .core import (
    ChunkAssignment,
    Scheduler,
    SchemeError,
    WorkerView,
    drain,
    make,
    names,
)
from .decentral import (
    DECENTRAL_SCHEMES,
    make_calculator,
    run_decentral,
    simulate_decentral,
)
from .experiments.config import paper_cluster, paper_workload
from .obs import ObsEvent, capture, stream_digest, trace_report
from .simulation import ClusterSpec, NodeSpec, SimResult, simulate, simulate_tree
from .verify import AuditError, AuditReport, audit_events, audit_run, audit_sim
from .workloads import MandelbrotWorkload, ReorderedWorkload, Workload

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Scheduler",
    "SchemeError",
    "ChunkAssignment",
    "WorkerView",
    "drain",
    "make",
    "names",
    "Workload",
    "MandelbrotWorkload",
    "ReorderedWorkload",
    "ClusterSpec",
    "NodeSpec",
    "SimResult",
    "simulate",
    "simulate_tree",
    "DECENTRAL_SCHEMES",
    "make_calculator",
    "run_decentral",
    "simulate_decentral",
    "paper_workload",
    "paper_cluster",
    "SimJob",
    "run_batch",
    "stream_batch",
    "CostCache",
    "get_cache",
    "configure_cache",
    "FaultPlan",
    "AuditError",
    "AuditReport",
    "audit_sim",
    "audit_run",
    "audit_events",
    "ObsEvent",
    "capture",
    "stream_digest",
    "trace_report",
]
