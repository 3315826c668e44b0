"""The DES chassis's queue-entry contract, seen from a real engine.

``tests/simulation/test_events.py`` pins the entry shape on a bare
queue; these cases pin what the chassis builds on it: which entries a
death makes stale, that they are skipped yet counted in
``SimResult.events``, that a restart does not revive them, that
deaths / restarts / stalls belong to nobody and always fire, and that
the compute step still refuses an interval outside the loop.

The second half pins the run spine the fast path shares with the DES:
one gate (``DesCluster.run``), one ``_prepare`` before either path and
one ``_finish`` after it.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.chaos import FaultPlan, MasterStall, WorkerDeath, WorkerRestart
from repro.core import make, names
from repro.core.acp import CLASSIC_ACP
from repro.decentral import (
    DECENTRAL_SCHEMES,
    DecentralSimulation,
    make_calculator,
)
from repro.experiments.config import speedup_configuration
from repro.obs import BufferedCollector
from repro.simulation import (
    ClusterSpec,
    ConstantLoad,
    MasterSlaveSimulation,
    NodeSpec,
    SimulationError,
    simulate,
)
from repro.simulation import fastpath
from repro.simulation.engine import StarvationError, make_for_cluster
from repro.verify import audit_sim
from repro.workloads import LinearWorkload, UniformWorkload, WorkloadError

#: 200 unit iterations at 100 ops/s in chunks of 50: a chunk computes
#: for 0.5 s, so worker 0's first one is in flight from ~0 to ~0.5.
SIZE, CHUNK, DEATH, RESTART = 200, "CSS(50)", 0.2, 0.3


def traced_sim(fails_at=None, chaos=None):
    """A two-PE master run that logs every push, every ``next_work``
    call and every owner-less lifecycle handler as it happens."""
    workload = UniformWorkload(SIZE)
    cluster = ClusterSpec(nodes=[
        NodeSpec(name="n0", speed=100.0, fails_at=fails_at),
        NodeSpec(name="n1", speed=100.0),
    ])
    sim = MasterSlaveSimulation(
        make(CHUNK, SIZE, 2), workload, cluster, chaos=chaos, fast=False,
    )
    log = {"push": [], "next_work": [], "lifecycle": []}
    push, next_work = sim.queue.push, sim.next_work

    def logged_push(time, fn, owner=None, *args):
        log["push"].append((sim.queue.now, time, fn, owner))
        push(time, fn, owner, *args)

    def logged_next_work(state):
        log["next_work"].append((sim.queue.now, state.index))
        next_work(state)

    sim.queue.push = logged_push
    sim.next_work = logged_next_work
    for name in ("_worker_die", "_worker_restart", "_stall"):
        def logged(*args, _name=name, _fn=getattr(sim, name)):
            log["lifecycle"].append((_name, sim.queue.now))
            _fn(*args)
        setattr(sim, name, logged)
    return sim, log


def stale_entries(log, worker, death):
    """Entries ``worker`` pushed before ``death`` that were due after."""
    return [
        due for pushed, due, _fn, owner in log["push"]
        if owner is not None and owner.index == worker
        and pushed < death < due
    ]


def test_dead_owner_entry_is_skipped_and_counted():
    sim, log = traced_sim(fails_at=DEATH)
    result = sim.run()
    # The in-flight chunk's completion is the one stale entry ...
    (stale,) = stale_entries(log, 0, DEATH)
    assert stale == pytest.approx(0.5, abs=0.01)
    # ... it never fired (worker 0 asks for nothing after it died) ...
    assert [t for t, i in log["next_work"] if i == 0] == [0.0]
    # ... and still counts: every entry pushed was processed.
    assert result.events == len(log["push"]) == sim.queue.processed
    audit_sim(result, total=SIZE).raise_if_failed()


def test_entry_scheduled_before_a_death_does_not_fire_after_restart():
    plan = FaultPlan(events=(
        WorkerDeath(worker=0, at=DEATH),
        WorkerRestart(worker=0, at=RESTART),
    ))
    sim, log = traced_sim(chaos=plan)
    result = sim.run()
    (stale,) = stale_entries(log, 0, DEATH)
    asked = [t for t, i in log["next_work"] if i == 0]
    # Alive again (and asking: at start-up, on rejoin, after each new
    # chunk) when the dead incarnation's completion comes due -- which
    # must not read as a completion of the new incarnation's chunk.
    assert asked[:2] == [0.0, RESTART] and len(asked) > 2
    assert RESTART < stale < asked[2]
    assert stale not in asked
    assert result.events == len(log["push"])
    assert result.workers[0].iterations > 0
    audit_sim(result, total=SIZE).raise_if_failed()


def test_ownerless_entries_always_fire():
    # Two deaths aimed at one PE (fails_at + plan), a stall while it is
    # dead, a restart: nobody owns these, so no liveness guard applies
    # -- the second death reaches its handler although its target is
    # already dead.
    plan = FaultPlan(events=(
        WorkerDeath(worker=0, at=0.25),
        MasterStall(at=0.27, duration=0.01),
        WorkerRestart(worker=0, at=RESTART),
    ))
    sim, log = traced_sim(fails_at=DEATH, chaos=plan)
    result = sim.run()
    assert log["lifecycle"] == [
        ("_worker_die", DEATH),
        ("_worker_die", 0.25),
        ("_stall", 0.27),
        ("_worker_restart", RESTART),
    ]
    assert [owner for _p, _d, fn, owner in log["push"]
            if fn in (sim._worker_die, sim._worker_restart, sim._stall)
            ] == [None] * 4
    audit_sim(result, total=SIZE).raise_if_failed()


@pytest.mark.parametrize("shift", [
    {"stop": SIZE + 1},          # past the end
    {"start": -3, "stop": 2},    # a list index would wrap around
])
def test_compute_refuses_an_interval_outside_the_loop(shift):
    scheduler = make(CHUNK, SIZE, 2)
    honest = scheduler.next_chunk

    def rogue(view):
        return dataclasses.replace(honest(view), **shift)

    scheduler.next_chunk = rogue
    cluster = ClusterSpec(
        nodes=[NodeSpec(name=f"n{i}", speed=100.0) for i in range(2)]
    )
    with pytest.raises(WorkloadError, match="out of range"):
        simulate(scheduler, UniformWorkload(SIZE), cluster, fast=False)


# -- the run spine: one gate, one prepare step, one epilogue ---------------

SPINE_WORKLOAD = LinearWorkload(360)
#: Everything ``fast=True`` accepts (the adaptive meta-scheduler is
#: refused by contract; ``tests/adaptive/test_fastpath.py``).
FAST_SCHEMES = [n for n in names() if not make(n, 100, 4).feedback_dependent]


def spied(engine, scheme, cluster, **kwargs):
    """A simulation of ``engine`` whose ``_prepare`` / ``_run_fast`` /
    ``_finish`` calls are counted in ``sim.calls``."""
    base = {"master": MasterSlaveSimulation,
            "decentral": DecentralSimulation}[engine]

    class Spy(base):
        def _prepare(self):
            self.calls.append("prepare")
            super()._prepare()

        def _run_fast(self):
            self.calls.append("fast")
            return super()._run_fast()

        def _finish(self, rows, t_p, events):
            self.calls.append("finish")
            return super()._finish(rows, t_p, events)

    size = SPINE_WORKLOAD.size
    driver = (
        make_for_cluster(scheme, size, cluster) if engine == "master"
        else make_calculator(scheme, size, cluster.size)
    )
    sim = Spy(driver, SPINE_WORKLOAD, cluster, **kwargs)
    sim.calls = []
    return sim


@pytest.mark.parametrize("dedicated", [True, False],
                         ids=["dedicated", "nondedicated"])
@pytest.mark.parametrize("engine,scheme", [
    *(("master", n) for n in FAST_SCHEMES),
    *(("decentral", n) for n in DECENTRAL_SCHEMES),
])
def test_both_paths_leave_through_the_same_finish(engine, scheme,
                                                  dedicated):
    cluster = speedup_configuration(SPINE_WORKLOAD, 4, dedicated)
    fast = spied(engine, scheme, cluster, fast=True)
    des = spied(engine, scheme, cluster, fast=False)
    a, b = fast.run(), des.run()
    assert fast.calls == ["prepare", "fast", "finish"]
    assert des.calls == ["prepare", "finish"]
    assert fast.queue.processed == 0 < des.queue.processed
    assert a == b
    audit_sim(a, total=SPINE_WORKLOAD.size).raise_if_failed()


def starved_cluster():
    # The paper's Sec. 5.2-I scenario: both PEs floor to ACP 0.
    return ClusterSpec(nodes=[
        NodeSpec(name="a", speed=100.0, load=ConstantLoad(2),
                 virtual_power=1.0),
        NodeSpec(name="b", speed=300.0, load=ConstantLoad(4),
                 virtual_power=3.0),
    ])


def test_starvation_is_one_error_whatever_the_path():
    raised = []
    for fast in (False, "auto", True):
        with pytest.raises(StarvationError) as err:
            simulate("DTSS", UniformWorkload(100), starved_cluster(),
                     acp_model=CLASSIC_ACP, fast=fast)
        raised.append(str(err.value))
    assert len(set(raised)) == 1 and "availability threshold" in raised[0]


def test_refusal_comes_before_prepare_touches_the_scheduler():
    cluster = speedup_configuration(SPINE_WORKLOAD, 4, False)
    sim = spied("master", "DTSS", cluster, fast=True,
                collector=BufferedCollector())
    seen = []
    sim.scheduler.observe_acp = lambda wid, acp: seen.append((wid, acp))
    with pytest.raises(SimulationError, match="collector is attached"):
        sim.run()
    assert sim.calls == [] and seen == []
    # The same run under "auto" registers every PE, then takes the DES.
    sim = spied("master", "DTSS", cluster, collector=BufferedCollector())
    sim.scheduler.observe_acp = lambda wid, acp: seen.append((wid, acp))
    sim.run()
    assert sim.calls == ["prepare", "finish"]
    assert [wid for wid, _acp in seen[:4]] == [0, 1, 2, 3]


@pytest.mark.parametrize("engine", ["master", "decentral"])
def test_kill_switch_forces_the_des_on_both_engines(engine, monkeypatch):
    cluster = speedup_configuration(SPINE_WORKLOAD, 4, True)
    monkeypatch.setenv(fastpath.ENV_FAST, "0")
    off = spied(engine, "TSS", cluster)
    forced = off.run()
    assert off.calls == ["prepare", "finish"] and off.queue.processed
    refused = spied(engine, "TSS", cluster, fast=True)
    with pytest.raises(SimulationError, match="disabled via REPRO_FAST"):
        refused.run()
    assert refused.calls == []
    monkeypatch.delenv(fastpath.ENV_FAST)
    on = spied(engine, "TSS", cluster)
    assert on.run() == forced
    assert on.calls == ["prepare", "fast", "finish"]
