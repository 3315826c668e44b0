"""One pickle rule for every workload: derived values stay behind.

A workload pickles its constructor arguments and its resolved cost
vector.  Everything it derives is a ``functools.cached_property``, so
reading it neither changes the pickle bytes nor fails to come back bit
for bit on the far side.
"""

from __future__ import annotations

import functools
import inspect
import pickle

import numpy as np
import pytest

from repro import cache, workloads
from repro.experiments import paper_workload
from repro.workloads import (
    ConditionalWorkload,
    GaussianPeakWorkload,
    LinearWorkload,
    MandelbrotWorkload,
    RandomWorkload,
    ReorderedWorkload,
    SpinWorkload,
    TraceWorkload,
    UniformWorkload,
    Workload,
)

FACTORIES = {
    "uniform": lambda: UniformWorkload(60, unit=2.5),
    "linear": lambda: LinearWorkload(60, increasing=False, slope=0.5),
    "conditional": lambda: ConditionalWorkload(60),
    "random": lambda: RandomWorkload(60, seed=3),
    "trace": lambda: TraceWorkload(np.arange(1.0, 61.0)),
    "spin": lambda: SpinWorkload(8, spins=2, veclen=16),
    "gaussian-peak": lambda: GaussianPeakWorkload(60),
    "mandelbrot": lambda: MandelbrotWorkload(40, 24, max_iter=24),
    "reordered-mandelbrot": lambda: ReorderedWorkload(
        MandelbrotWorkload(40, 24, max_iter=24), sf=4),
    "reordered-random": lambda: ReorderedWorkload(
        RandomWorkload(60, seed=1), sf=3),
}


def cached_names(cls: type) -> list[str]:
    return sorted(
        name for name in dir(cls)
        if isinstance(inspect.getattr_static(cls, name),
                      functools.cached_property)
    )


def read_everything(wl: Workload) -> dict:
    """Every value ``wl`` derives, public reads first."""
    values = {
        "prefix_list()": wl.prefix_list(),
        "chunk_cost": wl.chunk_cost(1, wl.size - 1),
        "cost_digest()": wl.cost_digest(),
        "execute": wl.execute(0, 2),
    }
    if isinstance(wl, ReorderedWorkload):
        values["perm"] = wl.perm
        values["inner.execute"] = wl.inner.execute(0, 2)
    for name in cached_names(type(wl)):
        values[name] = getattr(wl, name)
    return values


def assert_same(built, rebuilt, what: str) -> None:
    if isinstance(built, np.ndarray):
        assert rebuilt.dtype == built.dtype, what
        assert rebuilt.tobytes() == built.tobytes(), what
    elif isinstance(built, dict):
        # A memo the copy fills on demand: what it holds, it rebuilt.
        assert set(rebuilt) <= set(built), what
        for key in rebuilt:
            assert_same(built[key], rebuilt[key], f"{what}[{key}]")
    else:
        assert type(rebuilt) is type(built) and rebuilt == built, what


def test_every_workload_class_is_covered():
    classes = {
        obj for obj in vars(workloads).values()
        if inspect.isclass(obj) and issubclass(obj, Workload)
        and not inspect.isabstract(obj)
    }
    covered = {type(make()) for make in FACTORIES.values()}
    assert classes == covered


@pytest.mark.parametrize("make", FACTORIES.values(), ids=FACTORIES.keys())
def test_reading_a_derived_value_leaves_the_pickle_as_it_was(make):
    wl = make()
    wl.costs()
    before = pickle.dumps(wl)
    built = read_everything(wl)
    assert pickle.dumps(wl) == before
    clone = pickle.loads(before)
    assert not set(cached_names(type(clone))) & set(vars(clone))
    rebuilt = read_everything(clone)
    assert built.keys() == rebuilt.keys()
    for what in built:
        assert_same(built[what], rebuilt[what], what)
    assert pickle.dumps(clone) == before


def test_the_ledger_workload_pickles_alike_cold_and_warm(tmp_path):
    """The paper's loop at the ledger's 1000x500 window: a cold cost
    pass leaves the inner Mandelbrot's vector behind, as a warm one
    does."""
    previous = cache.get_cache()
    try:
        cache.configure(directory=tmp_path / "cost-cache")
        cold = paper_workload(1000, 500)
        cold.costs()
        warm = paper_workload(1000, 500)
        warm.costs()
    finally:
        cache._active = previous
    assert cold.inner._costs is None and warm.inner._costs is None
    assert pickle.dumps(cold) == pickle.dumps(warm)
