"""What one simulated run builds, counted through spies.

A fast-path run's cost is its chunks plus a constant; these pins hold
the constructions that make up the constant, so a regression fails at
the layer that put a cost back, not in a timing.  Each count is a
property of the code and the input (no clock, no Python call counts,
which differ between 3.10's and 3.12's comprehensions):

* a fast run builds none of the DES's own state: no ``EventQueue``, no
  per-PE ``DesWorker``, no ``MasterState`` -- and the same job on the
  DES builds each, so a zero is not a blind spy;
* a fast run books each PE once: one ``WorkerMetrics`` per node;
* an unobserved run builds no collector sink;
* the decentral fast path reads the calculator's ladder as it is (plain
  lists), and no fast run calls into numpy at all;
* ``registry.parse`` runs once per ``SimJob.run`` and no import
  statement runs inside one;
* a fast loop pays one heap operation per processed event: a
  ``heapreplace`` per chunk and a ``heappop`` per chain that ends (one
  per participant on the master, one per worker on the decentral
  engine), and nothing per PE per arrival.
"""

from __future__ import annotations

import builtins
import collections
import copy
import os
import sys

import numpy as np
import pytest

from repro.batch import SimJob
from repro.core import master as master_mod
from repro.core import registry
from repro.core.acp import AcpModel
from repro.decentral import sim_engine
from repro.simulation import des, events, fastpath
from repro.simulation import metrics as metrics_mod
from repro.workloads import GaussianPeakWorkload

from ..conftest import make_cluster

WORKLOAD = GaussianPeakWorkload(300, amplitude=6.0)
CLUSTER = make_cluster()
P = CLUSTER.size

_NUMPY_DIR = os.path.dirname(np.__file__)


def _spy(monkeypatch, counts, owner, name, key=None):
    """Count calls of ``owner.name`` under ``key`` (default ``name``)."""
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[key or name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.fixture
def built(monkeypatch):
    """A counter of the constructions a run makes, spies installed."""
    counts: collections.Counter = collections.Counter()
    _spy(monkeypatch, counts, events.EventQueue, "__init__", "EventQueue")
    for cls in (des.DesWorker, sim_engine._DWorkerState):
        _spy(monkeypatch, counts, cls, "__init__", "DesWorker")
    _spy(monkeypatch, counts, master_mod.MasterState, "__init__",
         "MasterState")
    _spy(monkeypatch, counts, metrics_mod.WorkerMetrics, "__init__",
         "WorkerMetrics")
    _spy(monkeypatch, counts, des, "_collector_sink", "sink")
    _spy(monkeypatch, counts, registry, "parse")
    return counts


def _job(engine, scheme="TSS", **params):
    # Resolve the workload's costs up front: a run reads its prefix
    # list, it does not build one.
    WORKLOAD.prefix_list()
    return SimJob(scheme, WORKLOAD, CLUSTER, engine=engine, params=params)


@pytest.mark.parametrize("engine", ["master", "decentral"])
def test_a_fast_run_builds_no_des_state(engine, built):
    result = _job(engine, fast=True).run()
    assert result.trace_length  # it took the fast path
    assert built == {"WorkerMetrics": P, "parse": 1}


@pytest.mark.parametrize("engine", ["master", "decentral"])
def test_the_same_run_on_the_des_builds_each(engine, built):
    _job(engine, fast=False).run()
    expected = {
        "EventQueue": 1, "DesWorker": P, "WorkerMetrics": P, "parse": 1,
    }
    if engine == "master":
        expected["MasterState"] = 1
    assert built == expected


@pytest.mark.parametrize("engine", ["master", "decentral"])
def test_only_an_observed_run_builds_a_sink(engine, built):
    job = SimJob("TSS", WORKLOAD, CLUSTER, engine=engine,
                 collect_events=True)
    job.run()
    assert built["sink"] == 1


@pytest.fixture
def heap_ops(monkeypatch):
    """A counter of the fast loops' heap operations, spies installed."""
    counts: collections.Counter = collections.Counter()
    _spy(monkeypatch, counts, fastpath, "heapreplace")
    _spy(monkeypatch, counts, fastpath, "heappop")
    return counts


@pytest.mark.parametrize("engine", ["master", "decentral"])
@pytest.mark.parametrize("scheme", ["SS", "CSS(4)", "TSS", "FSS"])
def test_a_fast_run_does_one_heap_operation_per_event(engine, scheme,
                                                      heap_ops):
    result = _job(engine, scheme, fast=True).run()
    assert result.total_chunks > P
    assert heap_ops == {"heapreplace": result.total_chunks, "heappop": P}


def test_a_screened_out_pe_pops_nothing(heap_ops):
    # ACPs 30, 30, 3, 3 against A_min = 6: the two loaded PEs never
    # ask, so only two chains start and two end.
    cluster = make_cluster(overloaded=(2, 3))
    model = AcpModel(scale=10, a_min=6)
    result = SimJob("DTSS", WORKLOAD, cluster,
                    params={"fast": True, "acp_model": model}).run()
    assert [w.chunks == 0 for w in result.workers] == [
        False, False, True, True,
    ]
    assert heap_ops == {"heapreplace": result.total_chunks, "heappop": 2}


def _numpy_calls(run) -> list:
    """Every call into numpy (a numpy function, builtin or array
    method) while ``run()`` executes."""
    seen = []

    def profile(frame, event, arg):
        if event == "call":
            if frame.f_code.co_filename.startswith(_NUMPY_DIR):
                seen.append(frame.f_code.co_name)
        elif event == "c_call":
            owner = getattr(arg, "__self__", None)
            module = getattr(arg, "__module__", None) or ""
            if module.startswith("numpy") or isinstance(
                owner, np.ndarray
            ) or getattr(owner, "__name__", "").startswith("numpy"):
                seen.append(getattr(arg, "__qualname__", repr(arg)))

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


@pytest.mark.parametrize("engine", ["master", "decentral"])
def test_a_fast_run_calls_no_numpy(engine):
    job = _job(engine, fast=True)
    assert _numpy_calls(job.run) == []
    # The spy sees numpy when a run does use it: results are arrays.
    collecting = _job(engine, fast=True, collect_results=True)
    assert _numpy_calls(collecting.run)


@pytest.mark.parametrize("engine", ["master", "decentral"])
def test_a_run_executes_no_import_statement(engine, monkeypatch):
    job = _job(engine, fast=True)
    job.run()
    imports = []
    real = builtins.__import__

    def counted(name, *args, **kwargs):
        imports.append(name)
        return real(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", counted)
    job.run()
    SimJob("TSS", WORKLOAD, CLUSTER, engine=engine,
           collect_events=True).run()
    monkeypatch.undo()
    assert imports == []


@pytest.mark.parametrize("copied", [False, True], ids=["shared", "deepcopy"])
@pytest.mark.parametrize("first, second", [
    (("master", "TSS"), ("decentral", "FSS")),
    (("master", "DTSS"), ("master", "FISS")),
])
def test_runs_leave_no_state_behind(first, second, copied):
    # A, B, A on one cluster object (or a fresh deep copy per run):
    # every fast run equals the DES run of the same job, so nothing a
    # run builds or caches leaks into the next one or sticks to the
    # spec it was given.
    cluster = make_cluster(overloaded=(1,))

    def run(spec, fast):
        engine, scheme = spec
        on = copy.deepcopy(cluster) if copied else cluster
        return SimJob(scheme, WORKLOAD, on, engine=engine,
                      params={"fast": fast}).run()

    reference = {spec: run(spec, False) for spec in (first, second)}
    for spec in (first, second, first):
        got, want = run(spec, True), reference[spec]
        assert got.trace_length is not None  # the fast path ran
        assert got.t_p == want.t_p
        assert list(got.chunks) == list(want.chunks)
        assert got.workers == want.workers
        assert got == want
