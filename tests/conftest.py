"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import json
import math
import os

import orjson
import pytest
from hypothesis import settings as hypothesis_settings

from repro import cache
from repro.simulation import ClusterSpec, ConstantLoad, NodeSpec, StepLoad
from repro.workloads import (
    GaussianPeakWorkload,
    MandelbrotWorkload,
    ReorderedWorkload,
    UniformWorkload,
)


# Hypothesis profiles: "ci" is derandomized so the chaos CI job is
# reproducible run to run; "chaos" digs deeper for local soak testing.
# Select with HYPOTHESIS_PROFILE=ci|chaos (default: hypothesis default).
hypothesis_settings.register_profile(
    "ci", derandomize=True, max_examples=25, deadline=None
)
hypothesis_settings.register_profile(
    "chaos", max_examples=300, deadline=None
)
if os.environ.get("HYPOTHESIS_PROFILE"):
    hypothesis_settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


@pytest.fixture(autouse=True)
def _audit_every_simulation(monkeypatch):
    """Run the trace invariant auditor on every simulated run.

    Wraps ``MasterSlaveSimulation.run`` and ``TreeSimulation.run`` so
    *any* test that simulates -- chaos or not -- gets its trace checked
    for exactly-once coverage, monotone times, and metrics agreement.
    A scheduling bug anywhere in the suite fails loudly here instead of
    corrupting results silently.
    """
    from repro.decentral.sim_engine import DecentralSimulation
    from repro.simulation.engine import MasterSlaveSimulation
    from repro.simulation.tree_engine import TreeSimulation
    from repro.verify import audit_sim

    orig_master = MasterSlaveSimulation.run
    orig_tree = TreeSimulation.run
    orig_decentral = DecentralSimulation.run

    def run_master(self):
        result = orig_master(self)
        audit_sim(result, self.scheduler.total).raise_if_failed()
        return result

    def run_tree(self):
        result = orig_tree(self)
        audit_sim(result, self.workload.size).raise_if_failed()
        return result

    def run_decentral(self):
        result = orig_decentral(self)
        audit_sim(result, self.workload.size).raise_if_failed()
        return result

    monkeypatch.setattr(MasterSlaveSimulation, "run", run_master)
    monkeypatch.setattr(TreeSimulation, "run", run_tree)
    monkeypatch.setattr(DecentralSimulation, "run", run_decentral)
    yield


@pytest.fixture(scope="session", autouse=True)
def _hermetic_cost_cache(tmp_path_factory):
    """Point the persistent cost-profile cache at a session temp dir.

    Tests must not read or pollute the developer's ``~/.cache/repro``;
    within the session the cache still works normally (so cache
    behaviour is itself testable -- individual tests reconfigure it
    with their own directories as needed).
    """
    directory = tmp_path_factory.mktemp("cost-cache")
    cache.configure(directory=directory)
    yield
    cache.configure(directory=directory)


@pytest.fixture(scope="session")
def small_mandelbrot() -> MandelbrotWorkload:
    """A small Mandelbrot workload shared across tests (cost-cached)."""
    return MandelbrotWorkload(96, 64, max_iter=32)


@pytest.fixture(scope="session")
def reordered_mandelbrot(small_mandelbrot) -> ReorderedWorkload:
    return ReorderedWorkload(small_mandelbrot, sf=4)


@pytest.fixture()
def uniform_workload() -> UniformWorkload:
    return UniformWorkload(200, unit=5.0)


@pytest.fixture()
def peak_workload() -> GaussianPeakWorkload:
    return GaussianPeakWorkload(300, amplitude=50.0)


def make_cluster(
    n_fast: int = 2,
    n_slow: int = 2,
    fast_speed: float = 300.0,
    overloaded: tuple[int, ...] = (),
    q: int = 3,
    **kwargs,
) -> ClusterSpec:
    """A small heterogeneous cluster for engine tests."""
    nodes = []
    for i in range(n_fast):
        nodes.append(
            NodeSpec(
                name=f"fast{i}",
                speed=fast_speed,
                bandwidth=1.25e7,
                load=ConstantLoad(q if i in overloaded else 1),
            )
        )
    for j in range(n_slow):
        idx = n_fast + j
        nodes.append(
            NodeSpec(
                name=f"slow{j}",
                speed=fast_speed / 3.0,
                bandwidth=1.25e6,
                load=ConstantLoad(q if idx in overloaded else 1),
            )
        )
    return ClusterSpec(nodes=nodes, **kwargs)


@pytest.fixture()
def hetero_cluster() -> ClusterSpec:
    return make_cluster()


def square_wave(
    period: float, q_on: int, phase: float, horizon: float,
    duty: float = 0.5,
) -> StepLoad:
    """An on/off duty cycle as a multi-step trace: ``q_on`` for the
    first ``duty`` of every ``period`` from ``phase`` on, 1 otherwise,
    then 1 from ``horizon`` on."""
    steps = []
    for k in range(math.ceil((horizon - phase) / period)):
        start = phase + k * period
        steps += [(start, q_on), (start + duty * period, 1)]
    return StepLoad(steps)


def orjson_writes_exactly(doc) -> bool:
    """True when orjson writes ``doc`` as :mod:`json` reads it back:
    every float finite, every int within 64 bits, every string free of
    lone surrogates (numpy float scalars are floats)."""
    if isinstance(doc, dict):
        return all(map(orjson_writes_exactly, doc)) \
            and all(map(orjson_writes_exactly, doc.values()))
    if isinstance(doc, list):
        return all(map(orjson_writes_exactly, doc))
    if isinstance(doc, str):
        try:
            doc.encode("utf-8")
        except UnicodeEncodeError:
            return False
        return True
    if isinstance(doc, float):
        return math.isfinite(doc)
    if isinstance(doc, int):
        return -2 ** 63 <= doc < 2 ** 64
    return True


def assert_json_text(text: str, definition) -> None:
    """A bulk writer's ``text`` against the ``definition`` it writes.

    Parsed by :mod:`json`, it is the definition: compared through
    ``json.dumps``, so NaN equals NaN while ``-0.0`` and ``0.0``, or
    ``1`` and ``1.0``, stay apart and key order counts.  Whenever
    orjson can write the definition exactly, the text is orjson's.
    """
    assert json.dumps(json.loads(text)) == json.dumps(definition)
    if orjson_writes_exactly(definition):
        assert text == orjson.dumps(
            definition, option=orjson.OPT_SERIALIZE_NUMPY).decode()
