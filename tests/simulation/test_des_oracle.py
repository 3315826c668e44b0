"""Byte-level oracle for the three DES engines.

``golden_des.json`` was generated from the commit *before* the engines
moved onto the shared :mod:`repro.simulation.des` chassis.  Each entry
is the sha256 of everything a run exposes -- the result dict (``t_p``,
per-worker accounting, every chunk row with its times), the raw event
count ``SimResult.events`` and the full collected ``ObsEvent`` stream,
times included -- so any change to *which* events are scheduled, in
which order, or to a single accounted float shows up here.  The ledger
golden pins only the time-stripped digest for fault-free inputs; this
file pins times, ``events`` and every fault kind per engine.

The ``tie-*`` cases run four identical PEs over a uniform loop, so
requests, replies and finishes land at exactly the same instants and
the queue's ``(time, seq)`` tie-break decides the order; they were
generated before the queue kept its earliest entry outside the heap.
The ``tree-grain8`` rows (the grain of Table 2 and Figures 4-7) were
generated before TreeS took its fixed-grain block inline.

Regenerate (only when a behaviour change is intended and explained)::

    PYTHONPATH=src python tests/simulation/test_des_oracle.py
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.chaos import (
    FaultPlan,
    LoadSpike,
    MasterStall,
    MessageDelay,
    MessageLoss,
    WorkerDeath,
    WorkerRestart,
)
from repro.decentral import simulate_decentral
from repro.obs import BufferedCollector
from repro.simulation import (
    ClusterSpec,
    NodeSpec,
    SimulationError,
    StepLoad,
    simulate,
    simulate_tree,
)
from repro.workloads import GaussianPeakWorkload, UniformWorkload

_GOLDEN = os.path.join(os.path.dirname(__file__), "golden_des.json")

_SIZE = 400


def _cluster(segment=None, fails_at=None) -> ClusterSpec:
    """Two fast + two slow PEs, one of them loaded from t=0.6."""
    speeds = (120.0, 100.0, 60.0, 50.0)
    nodes = []
    for i, speed in enumerate(speeds):
        kwargs = {}
        if i == 1:
            kwargs["load"] = StepLoad([(0.6, 2), (1.4, 1)])
        if segment is not None and i >= 2:
            kwargs["segment"] = segment
        if fails_at is not None and i == 2:
            kwargs["fails_at"] = fails_at
        nodes.append(NodeSpec(name=f"n{i}", speed=speed, **kwargs))
    return ClusterSpec(nodes=nodes)


def _tie_cluster(segment=None, fails_at=None) -> ClusterSpec:
    """Four identical PEs: equal speeds and links make ties the rule."""
    return ClusterSpec(nodes=[
        NodeSpec(
            name=f"t{i}", speed=100.0,
            fails_at=fails_at if i == 2 else None,
        )
        for i in range(4)
    ])


#: fault name -> (plan | None, NodeSpec.fails_at for node 2 | None)
_FAULTS = {
    "none": (None, None),
    "death": (FaultPlan(events=(WorkerDeath(worker=0, at=0.35),)), None),
    "death_restart": (FaultPlan(events=(
        WorkerDeath(worker=1, at=0.3),
        WorkerRestart(worker=1, at=0.9),
        WorkerDeath(worker=3, at=0.5),
    )), None),
    "delay": (FaultPlan(events=(
        MessageDelay(worker=0, at=0.1, delay=0.25),
        MessageDelay(worker=2, at=0.0, delay=0.05),
    )), None),
    "loss": (FaultPlan(events=(
        MessageLoss(worker=1, at=0.2),
        MessageLoss(worker=3, at=0.0),
    ), retry_after=0.07), None),
    "stall": (FaultPlan(events=(
        MasterStall(at=0.2, duration=0.3),
        MasterStall(at=2.0, duration=0.2),
    )), None),
    "spike": (FaultPlan(events=(
        LoadSpike(worker=0, at=0.1, duration=0.8, extra_q=3),
    )), None),
    "fails_at_plan": (FaultPlan(events=(
        WorkerDeath(worker=1, at=0.3),
        WorkerDeath(worker=2, at=0.7),
        WorkerRestart(worker=1, at=1.1),
    )), 0.45),
    # Deaths near the end of the run: survivors that already ran dry
    # park until the failing peer's fate is known, then take its
    # requeued interval (or find nothing left to reclaim, on TreeS).
    "park_death": (FaultPlan(events=(
        WorkerDeath(worker=3, at=3.4), WorkerDeath(worker=2, at=3.6),
    )), None),
    "late_death": (FaultPlan(events=(
        WorkerDeath(worker=3, at=3.6), WorkerDeath(worker=2, at=3.8),
    )), None),
    "all_dead": (FaultPlan(events=tuple(
        WorkerDeath(worker=i, at=0.2 + 0.01 * i) for i in range(4)
    )), None),
}


def _master(scheme, segment=None, cluster=_cluster):
    def run(workload, chaos, fails_at, collector):
        return simulate(
            scheme, workload, cluster(segment, fails_at), chaos=chaos,
            collector=collector, collect_results=True,
        )
    return run


def _decentral(cluster=_cluster, **kwargs):
    def run(workload, chaos, fails_at, collector):
        return simulate_decentral(
            "TSS", workload, cluster(None, fails_at), chaos=chaos,
            collector=collector, collect_results=True, **kwargs,
        )
    return run


def _tree(weighted, cluster=_cluster, grain=1):
    def run(workload, chaos, fails_at, collector):
        return simulate_tree(
            workload, cluster(None, fails_at), weighted=weighted,
            flush_interval=0.5, grain=grain, chaos=chaos,
            collector=collector, collect_results=True,
        )
    return run


#: substrate name -> (runner, honours NodeSpec.fails_at at the parent)
_SUBSTRATES = {
    "master-TSS": (_master("TSS"), True),
    "master-DFSS": (_master("DFSS"), True),
    "master-adaptive": (_master("adaptive:TSS+FSS+GSS"), True),
    "master-segment-GSS": (_master("GSS", segment="hub"), True),
    "decentral-flat": (_decentral(), True),
    "decentral-leased": (_decentral(group_size=2, lease=3), True),
    # TreeS ignored ``fails_at`` before the chassis (a bug, fixed by
    # the shared fault scheduler), so that input has no parent oracle.
    "tree-even": (_tree(False), False),
    "tree-weighted": (_tree(True), False),
    # Table 2 and Figures 4-7 run TreeS at grain 8.
    "tree-grain8": (_tree(False, grain=8), False),
    "tie-master-SS": (_master("SS", cluster=_tie_cluster), True),
    "tie-master-CSS4": (_master("CSS(4)", cluster=_tie_cluster), True),
    "tie-master-TSS": (_master("TSS", cluster=_tie_cluster), True),
    "tie-decentral-flat": (_decentral(cluster=_tie_cluster), True),
    "tie-tree-even": (_tree(False, cluster=_tie_cluster), False),
}

CASES = [
    (substrate, fault)
    for substrate, (_run, fails_at_ok) in _SUBSTRATES.items()
    for fault in _FAULTS
    if fails_at_ok or _FAULTS[fault][1] is None
]


def run_case(substrate: str, fault: str, collector):
    """One case's :class:`SimResult`, its events left in ``collector``
    (a run that raises leaves what it emitted before the error)."""
    run, _ = _SUBSTRATES[substrate]
    plan, fails_at = _FAULTS[fault]
    workload = (
        UniformWorkload(_SIZE) if substrate.startswith("tie-")
        else GaussianPeakWorkload(_SIZE, amplitude=6.0)
    )
    return run(workload, plan, fails_at, collector)


def fingerprint(substrate: str, fault: str) -> str:
    collector = BufferedCollector()
    try:
        result = run_case(substrate, fault, collector)
    except SimulationError as exc:
        return f"error: {exc}"
    blob = json.dumps(
        [
            result.to_dict(include_results=True),
            result.events,
            [e.to_dict() for e in collector.events],
        ],
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _load() -> dict:
    with open(_GOLDEN, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_covers_exactly_the_case_matrix():
    assert sorted(_load()) == sorted(f"{s}/{f}" for s, f in CASES)


@pytest.mark.parametrize("substrate,fault", CASES)
def test_engine_output_is_byte_equal_to_the_parent(substrate, fault):
    assert fingerprint(substrate, fault) == _load()[f"{substrate}/{fault}"]


if __name__ == "__main__":
    golden = {f"{s}/{f}": fingerprint(s, f) for s, f in CASES}
    with open(_GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(golden)} fingerprints to {_GOLDEN}")
