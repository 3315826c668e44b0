"""The paper's per-slave books against the critical path's fold.

A DES run keeps ``WorkerMetrics`` (``t_com`` / ``t_wait`` /
``t_comp``, the cells of Tables 2-3) while it runs;
:func:`repro.obs.critical_path` tiles each worker's span of the trace
into ``compute`` / ``master-wait`` / ``network`` / ``fault-recovery``
/ ``idle`` after it.  On a fault-free observed run the two agree
worker by worker:

* critpath ``compute`` == ``t_comp``, bit-exact;
* ``chunks`` and ``iterations`` are equal;
* the category sum (the worker's span) == ``busy``
  (``t_com + t_wait + t_comp``) within 1e-9 relative.

The com/wait split is not part of the mapping: the books charge a
request queued at the master to ``t_wait``, the tiling charges it to
``network`` until the ``assign``; only their sum is shared.
"""

from __future__ import annotations

import pytest

from repro import paper_cluster, paper_workload
from repro.core import registry
from repro.decentral import simulate_decentral
from repro.obs import capture, critical_path
from repro.simulation import simulate, simulate_tree
from repro.workloads import LinearWorkload

SHAPES = {
    "mandelbrot": lambda: paper_workload(200, 100),
    "linear": lambda: LinearWorkload(size=300, base=1e-4, slope=1e-6),
}


def _assert_books_match_fold(res, events):
    by_worker = {w.worker: w for w in critical_path(events).workers}
    for wid, books in enumerate(res.workers):
        fold = by_worker[wid]
        assert fold.busy == books.t_comp, wid
        assert (fold.chunks, fold.iterations) == (
            books.chunks, books.iterations
        ), wid
        span = sum(fold.categories.values())
        assert span == pytest.approx(books.busy, rel=1e-9, abs=0.0), wid


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("scheme", registry.names())
def test_master_books_equal_the_fold(scheme, shape):
    wl = SHAPES[shape]()
    with capture() as trace:
        res = simulate(scheme, wl, paper_cluster(wl), collector=trace)
    _assert_books_match_fold(res, trace.events)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the PE that finishes last spans atomic_op_cost per claim more "
    "than its books: the engine books counter queueing into t_wait "
    "but books the counter's service time nowhere"
))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_decentral_books_equal_the_fold(shape):
    wl = SHAPES[shape]()
    with capture() as trace:
        res = simulate_decentral(
            "TSS", wl, paper_cluster(wl), collector=trace
        )
    _assert_books_match_fold(res, trace.events)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "critpath starts a worker's span at its first event, the "
    "allocation delivered at reply_tx; the books charge that transfer "
    "to t_com from t = 0"
))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_tree_books_equal_the_fold(shape):
    wl = SHAPES[shape]()
    with capture() as trace:
        res = simulate_tree(wl, paper_cluster(wl), collector=trace)
    _assert_books_match_fold(res, trace.events)
