"""Worker process main loop for the multiprocessing runtime.

Each worker owns one end of a pipe to the master and loops:

    request (piggy-backing the previous result) -> receive assignment ->
    execute the chunk -> repeat; on Terminate, ship final stats and exit.

Heterogeneity emulation: the paper's slow PEs are ~2.65x slower than its
fast ones.  On a single host all cores run at the same speed, so a
worker with ``slowdown = s`` executes its chunk once (for the result)
and then re-executes it ``s - 1`` more times (discarding the output),
making its wall-clock cost ``s``x the real cost without perturbing
results.  Fractional slowdowns re-execute a prefix of the chunk.

Load emulation: ``run_queue > 1`` makes the worker report a reduced ACP
(distributed mode) -- the actual CPU contention for nondedicated runtime
experiments comes from :func:`repro.workloads.matrix.matrix_add_load`
processes started by the executor.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Optional, Sequence

from ..core.acp import IMPROVED_ACP, AcpModel
from ..obs import NULL, JsonlCollector
from ..workloads import Workload
from .chassis import WorkerStep, heartbeat_sender, locked_sender
from .messages import Assign, Heartbeat, Request, Terminate

__all__ = ["WorkerSpec", "pad_specs", "worker_main"]

#: Event-source tag for the unified observability stream.
_SRC = "runtime.worker"


@dataclasses.dataclass(frozen=True)
class WorkerSpec(object):
    """Static description of one runtime worker.

    ``virtual_power`` feeds the ACP report; ``slowdown`` >= 1 emulates a
    proportionally slower PE; ``run_queue`` is the worker's (static)
    externally-imposed load for ACP purposes.
    """

    virtual_power: float = 1.0
    slowdown: float = 1.0
    run_queue: int = 1

    def __post_init__(self) -> None:
        if self.virtual_power <= 0:
            raise ValueError("virtual_power must be > 0")
        if self.slowdown < 1.0:
            raise ValueError("slowdown must be >= 1")
        if self.run_queue < 1:
            raise ValueError("run_queue must be >= 1")


def pad_specs(
    specs: Optional[Sequence[WorkerSpec]], n_workers: int
) -> list[WorkerSpec]:
    """``specs`` extended to ``n_workers`` entries with plain workers."""
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    specs = list(specs or [])
    specs.extend(WorkerSpec() for _ in range(n_workers - len(specs)))
    return specs


def worker_main(
    conn,
    workload: Workload,
    worker_id: int,
    spec: Optional[WorkerSpec] = None,
    distributed: bool = False,
    acp_model: AcpModel = IMPROVED_ACP,
    heartbeat_interval: Optional[float] = None,
    delays: Optional[Sequence[tuple[float, float]]] = None,
    obs_path: Optional[str] = None,
) -> None:
    """Run the request/compute loop until Terminate (process target).

    ``heartbeat_interval`` starts a daemon thread that sends a
    :class:`Heartbeat` every that-many seconds, so the master's
    liveness deadline survives long chunks (see
    :class:`repro.runtime.config.RuntimeConfig`).

    ``obs_path`` names a per-worker JSONL shard receiving this
    process's half of the unified observability stream (source
    ``runtime.worker``); the executor merges shards into the caller's
    collector after the join.  The shard writer is thread-safe (the
    heartbeat thread also emits) and appends with ``O_APPEND``, so a
    killed worker leaves at most one torn trailing line.

    ``delays`` is a list of ``(at, extra)`` pairs (seconds since worker
    start): before the first request sent at/after ``at``, the worker
    sleeps ``extra`` seconds -- how chaos message delay/loss faults
    reach the real runtime (a lost datagram and its retransmission look
    identical to the protocol: one late request).
    """
    spec = spec or WorkerSpec()
    acp = (
        acp_model.acp(spec.virtual_power, spec.run_queue)
        if distributed
        else None
    )
    pending: Optional[tuple[int, object]] = None
    obs = JsonlCollector(obs_path, flush_every=1) if obs_path else NULL
    step = WorkerStep(
        workload, worker_id, spec.slowdown, delays, _SRC,
        obs.emit if obs else None,
    )
    stats = step.stats
    # Heartbeats come from a side thread while the main loop computes.
    send = locked_sender(conn)

    def beat() -> None:
        send(Heartbeat(worker_id=worker_id))
        step.emit("heartbeat")

    stop_heartbeat = heartbeat_sender(beat, heartbeat_interval)
    try:
        while True:
            step.serve_delays()
            sent_at = time.perf_counter()
            send(Request(worker_id=worker_id, acp=acp, result=pending,
                         stats=stats))
            pending = None
            msg = conn.recv()
            stats.wait_seconds += time.perf_counter() - sent_at
            if isinstance(msg, Terminate):
                step.emit("terminate")
                break
            assert isinstance(msg, Assign), f"unexpected message {msg!r}"
            pending = (msg.start, step.compute(msg.start, msg.stop))
    except (EOFError, BrokenPipeError, KeyboardInterrupt):
        # Master vanished (or interactive interrupt): exit quietly; the
        # master side handles reassignment of any outstanding chunk.
        pass
    finally:
        stop_heartbeat()
        obs.close()
        conn.close()
