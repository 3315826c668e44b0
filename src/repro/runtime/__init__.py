"""Real master--worker execution on OS processes (the mpi4py-style
substrate; see DESIGN.md for the MPI substitution argument)."""

from .config import RuntimeConfig
from .chassis import BackgroundLoad, ProcessChassis, assemble_results
from .executor import PipeChassis, RunResult, run_parallel
from .master import (
    IncompleteRunError,
    MasterHooks,
    MasterResult,
    WorkerTimeoutError,
    master_loop,
)
from .mpi import have_mpi, run_mpi
from .messages import Assign, Heartbeat, Request, Terminate
from .serial import plan_time_scale, run_serial
from .worker import WorkerSpec, worker_main

__all__ = [
    "Assign",
    "Heartbeat",
    "Request",
    "Terminate",
    "RuntimeConfig",
    "MasterHooks",
    "IncompleteRunError",
    "WorkerTimeoutError",
    "assemble_results",
    "ProcessChassis",
    "PipeChassis",
    "WorkerSpec",
    "worker_main",
    "MasterResult",
    "master_loop",
    "RunResult",
    "run_parallel",
    "run_serial",
    "BackgroundLoad",
    "have_mpi",
    "run_mpi",
    "plan_time_scale",
]
