"""Optional MPI backend: the paper's actual substrate, via mpi4py.

The paper's implementation "relies on the distributed programming
framework offered by the mpich.1.2.0 implementation of MPI".  When
mpi4py is installed (it is an optional dependency; the offline test
environment does not ship it), this module runs the same master--slave
protocol as :mod:`repro.runtime.executor` across MPI ranks:

* rank 0 is the master: it serves requests with any
  :class:`~repro.core.Scheduler` and collects piggy-backed results;
* ranks 1..size-1 are slaves: request -> compute -> piggy-back, with
  optional ACP reports for the distributed schemes.

Launch with ``mpiexec -n <p+1> python your_script.py`` where the script
calls :func:`run_mpi`.  The module imports lazily so that everything
else in :mod:`repro.runtime` works without MPI; :func:`have_mpi`
reports availability (used by the test suite's skip markers).

Messages use mpi4py's lowercase (pickle) API -- chunk payloads are
NumPy arrays but small enough per message that the pickle path's
convenience beats buffer-protocol micro-optimization here; swap to
``Send/Recv`` with explicit dtypes if profiles ever show otherwise
(per the optimize-after-measuring rule).
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from ..core import Scheduler, make
from ..core.acp import IMPROVED_ACP, AcpModel
from ..core.master import MasterState
from ..workloads import Workload

__all__ = ["have_mpi", "run_mpi", "mpi_master", "mpi_worker"]

#: Message tags for the request/assign protocol.
TAG_REQUEST = 11
TAG_ASSIGN = 12
TAG_TERMINATE = 13


def have_mpi() -> bool:
    """True when mpi4py is importable (optional dependency)."""
    try:
        import mpi4py  # noqa: F401
    except ImportError:
        return False
    return True


def _get_comm():
    from mpi4py import MPI

    return MPI.COMM_WORLD, MPI


def mpi_master(
    scheduler: Scheduler,
    comm: Any,
    mpi: Any,
) -> list[tuple[int, Any]]:
    """Serve slave requests until the loop completes; gather results.

    Returns ``(start, payload)`` pairs sorted by ``start`` (i.e. serial
    order), served by :class:`repro.core.master.MasterState`.  MPI aborts
    the world on rank failure, so no work is ever lost and no one parks.
    """
    n_workers = comm.Get_size() - 1
    if n_workers < 1:
        raise RuntimeError("run under mpiexec with at least 2 ranks")
    results: list[tuple[int, Any]] = []
    live = n_workers
    status = mpi.Status()
    reported: dict[int, tuple[float, int]] = {}  # wid -> (V_i, Q_i)
    master = MasterState(scheduler, reported.__getitem__, lambda _: False)
    while live:
        msg = comm.recv(source=mpi.ANY_SOURCE, tag=TAG_REQUEST,
                        status=status)
        source = status.Get_source()
        delivered = msg.get("result") is not None
        if delivered:
            results.append(tuple(msg["result"]))
        wid = source - 1
        reported[wid] = (
            msg.get("virtual_power", 1.0), msg.get("run_queue", 1)
        )
        chunk = master.request(wid, msg.get("acp"), delivered)
        if chunk is None:
            comm.send(None, dest=source, tag=TAG_TERMINATE)
            live -= 1
        else:
            comm.send(chunk[:2], dest=source, tag=TAG_ASSIGN)
    results.sort(key=lambda pair: pair[0])
    return results


def mpi_worker(
    workload: Workload,
    comm: Any,
    mpi: Any,
    virtual_power: float = 1.0,
    run_queue: int = 1,
    distributed: bool = False,
    acp_model: AcpModel = IMPROVED_ACP,
) -> None:
    """Slave loop: request, compute, piggy-back (ranks >= 1)."""
    acp = (
        acp_model.acp(virtual_power, run_queue) if distributed else None
    )
    pending: Optional[tuple[int, Any]] = None
    status = mpi.Status()
    while True:
        comm.send(
            {
                "result": pending,
                "acp": acp,
                "virtual_power": virtual_power,
                "run_queue": run_queue,
            },
            dest=0,
            tag=TAG_REQUEST,
        )
        pending = None
        msg = comm.recv(source=0, tag=mpi.ANY_TAG, status=status)
        if status.Get_tag() == TAG_TERMINATE:
            return
        start, stop = msg
        pending = (start, workload.execute(start, stop))


def run_mpi(
    scheme: str | Scheduler,
    workload: Workload,
    acp_model: AcpModel = IMPROVED_ACP,
    virtual_power: float = 1.0,
    run_queue: int = 1,
    **scheme_kwargs,
) -> Optional[np.ndarray]:
    """Run ``workload`` under ``scheme`` across MPI ranks.

    Call from every rank of an ``mpiexec`` launch; returns the
    reassembled results on rank 0 and ``None`` on slaves.  The worker
    count is ``comm.size - 1``.
    """
    if not have_mpi():
        raise RuntimeError(
            "mpi4py is not installed; use repro.runtime.run_parallel "
            "for the multiprocessing backend"
        )
    comm, mpi = _get_comm()
    rank = comm.Get_rank()
    n_workers = comm.Get_size() - 1
    if rank == 0:
        scheduler = (
            make(scheme, workload.size, n_workers, **scheme_kwargs)
            if isinstance(scheme, str)
            else scheme
        )
        pairs = mpi_master(scheduler, comm, mpi)
        if not pairs:
            return np.zeros(0)
        return np.concatenate(
            [np.atleast_1d(np.asarray(p)) for _s, p in pairs]
        )
    scheduler_probe = (
        make(scheme, 1, 1, **scheme_kwargs)
        if isinstance(scheme, str)
        else scheme
    )
    mpi_worker(
        workload,
        comm,
        mpi,
        virtual_power=virtual_power,
        run_queue=run_queue,
        distributed=scheduler_probe.distributed,
        acp_model=acp_model,
    )
    return None
