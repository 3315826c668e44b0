"""repro.service -- scheduling-as-a-service: a long-running multi-tenant
frontend over every execution substrate.

Everything else in this repository is one-shot: build a
:class:`~repro.batch.SimJob`, run it, exit.  This package turns that
into a *service* in the sense of the distributed chunk-calculation
line of work (Eleliemy & Ciorba, arXiv:2101.07050; arXiv:1901.02773):
self-scheduling as a shared, long-lived coordination point rather than
a per-run process tree.

* :mod:`repro.service.protocol` -- length-prefixed JSON frames (the
  socket transport that replaces raw pipes): a blocking-socket codec
  and an incremental decoder.
* :mod:`repro.service.jobs` -- the wire job model: a JSON spec names a
  scheme, workload, cluster and engine; :func:`job_from_spec` builds
  the exact :class:`~repro.batch.SimJob` a one-shot run would use, so
  a service-executed job is *byte-diffable* against its one-shot
  equivalent (same canonical stream digest, see :mod:`repro.obs`).
* :mod:`repro.service.pool` -- the shared worker pool: real OS
  processes with the runtime's production concerns re-used (heartbeat
  liveness, deadline-based death detection, incarnation guards so a
  SIGKILLed worker's job is re-executed exactly once).
* :mod:`repro.service.server` -- the asyncio daemon: admission control
  (bounded queue -> backpressure rejects, never unbounded growth),
  per-tenant quotas and round-robin fair dispatch, warm
  :mod:`repro.cache` cost-profile sharing across tenants, graceful
  drain on SIGTERM, per-tenant :mod:`repro.obs` traces and a
  ``/metrics``-style snapshot op.
* :mod:`repro.service.client` -- the blocking client library the CLI
  and the tests drive.
* :mod:`repro.service.cli` -- the ``repro-service`` entry point
  (``serve`` / ``submit`` / ``status`` / ``metrics`` / ``drain``).

The chaos harness doubles as the integration test:
:func:`repro.chaos.inject_service_faults` maps a seeded
:class:`~repro.chaos.FaultPlan` onto live pool workers, and
:func:`repro.verify.audit_service_log` proof-checks the service's job
ledger (exactly-once delivery, tenant isolation, incarnation
freshness) afterwards.
"""

from .client import ServiceClient, ServiceError
from .jobs import JobSpecError, cluster_from_spec, job_from_spec, workload_from_spec
from .pool import WorkerPool
from .protocol import (
    MAX_FRAME,
    FrameDecoder,
    ProtocolError,
    encode_frame,
    recv_frame,
    send_frame,
)
from .server import ServiceConfig, ServiceServer, serve_until_complete

__all__ = [
    "MAX_FRAME",
    "FrameDecoder",
    "JobSpecError",
    "ProtocolError",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceServer",
    "WorkerPool",
    "cluster_from_spec",
    "encode_frame",
    "job_from_spec",
    "recv_frame",
    "send_frame",
    "serve_until_complete",
    "workload_from_spec",
]
