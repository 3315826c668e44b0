"""One clock per real run: every event of a trace is on one timeline.

Both real substrates read time through the run's one
:class:`repro.runtime.chassis.Clock`, whose origin the chassis takes
before its first fork: the master loop, every worker incarnation, the
fault script and the decentral merge stamp on it.  So a worker's
``compute`` interval lies inside its chunk's master ``assign`` ->
``result`` window (the decentral ``result`` is built from the record
written after the compute), and ``wall - t`` is the origin's wall stamp
for every event of a run.  The decentral wait loop turns once per
incarnation exit or script action, never on a timer.
"""

from __future__ import annotations

import collections
import contextlib
import math
import signal

import pytest

from repro.chaos import FaultPlan, MessageDelay, WorkerDeath, WorkerRestart
from repro.decentral import REPAIR_LANE, CounterChassis, run_decentral
from repro.obs import capture
from repro.runtime import run_parallel
from repro.workloads import SpinWorkload

#: A loop of a few tens of milliseconds on three processes.
SPIN = SpinWorkload(60, spins=50, veclen=4096)
#: Twice that loop: on two processes a timer-driven wait (a 20 ms
#: sleep poll) turns more often than the bound allows.
LONG = SpinWorkload(120, spins=50, veclen=4096)

#: A death and a restart of worker 1, and worker 2's first request late.
PLAN = FaultPlan(events=(
    WorkerDeath(worker=1, at=0.02),
    WorkerRestart(worker=1, at=0.04),
    MessageDelay(worker=2, at=0.0, delay=0.01),
))

PLANS = [pytest.param(None, id="fault-free"), pytest.param(PLAN, id="plan")]

#: Float slack: ``wall`` is ~1.7e9, where one ulp is ~2.4e-7.
_EPS = 1e-6


@contextlib.contextmanager
def _hang_guard(seconds: int = 20):
    """Fail, rather than hang, a run whose wait never returns."""

    def expire(_signum, _frame):
        raise TimeoutError(f"run still waiting after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _assert_one_origin(events) -> None:
    offsets = [ev.wall - ev.t for ev in events]
    assert events and None not in offsets
    assert max(offsets) - min(offsets) <= _EPS, (min(offsets), max(offsets))


def _computes(events, source: str) -> list:
    computes = [ev for ev in events
                if ev.kind == "compute" and ev.source == source]
    assert computes
    return computes


@pytest.mark.parametrize("plan", PLANS)
def test_runtime_compute_lies_inside_its_masters_window(plan):
    with capture() as trace:
        run = run_parallel("TSS", SPIN, 3, plan=plan, collector=trace)
    assert run.results is not None
    events = trace.events
    _assert_one_origin(events)
    # (worker, start, stop) -> [assign t, result t] per assignment, a
    # window whose result never came (a killed holder) open to inf.
    windows: dict = collections.defaultdict(list)
    master = [ev for ev in events if ev.source == "runtime.master"]
    for ev in sorted(master, key=lambda ev: ev.t):
        key = (ev.worker, ev.start, ev.stop)
        if ev.kind == "assign":
            windows[key].append([ev.t, math.inf])
        elif ev.kind == "result":
            windows[key][-1][1] = ev.t
    for ev in _computes(events, "runtime.worker"):
        key = (ev.worker, ev.start, ev.stop)
        opened = [window for window in windows[key] if window[0] <= ev.t]
        assert opened, f"{ev} starts before its chunk was assigned"
        assert ev.t + ev.value <= opened[-1][1] + _EPS, (ev, opened[-1])


@pytest.mark.parametrize("plan", PLANS)
def test_decentral_compute_ends_before_its_result(plan):
    with capture() as trace:
        run = run_decentral("TSS", SPIN, 3, plan=plan, collector=trace)
    assert run.results is not None
    events = trace.events
    _assert_one_origin(events)
    results = {(ev.worker, ev.start, ev.stop): ev.t for ev in events
               if ev.kind == "result" and ev.worker != REPAIR_LANE}
    checked = 0
    for ev in _computes(events, "runtime.decentral"):
        key = (ev.worker, ev.start, ev.stop)
        if key in results:
            checked += 1
            assert ev.t + ev.value <= results[key] + _EPS, ev
    assert checked == len(results)


def _count_turns(monkeypatch) -> list:
    """The chassis of every turn of the decentral wait loop (one
    :meth:`~repro.runtime.chassis.ProcessChassis.fire` call each)."""
    turns: list = []
    fire = CounterChassis.fire

    def counted(self):
        turns.append(self)
        return fire(self)

    monkeypatch.setattr(CounterChassis, "fire", counted)
    return turns


def _turn_bound(chassis, plan) -> int:
    """Incarnations + script actions + the turn that ends the loop."""
    incarnations = sum(n + 1 for n in chassis.incarnations.values())
    actions = len(plan.deaths) + len(plan.restarts) \
        + 2 * (len(plan.spikes) + len(plan.stalls))
    return incarnations + actions + 1


@pytest.mark.parametrize("plan", PLANS)
def test_the_decentral_wait_turns_on_exits_and_actions_only(
    monkeypatch, plan,
):
    turns = _count_turns(monkeypatch)
    with _hang_guard():
        run = run_decentral("TSS", LONG, 2 if plan is None else 3,
                            plan=plan)
    assert run.results is not None
    assert turns
    assert len(turns) <= _turn_bound(turns[0], plan or FaultPlan())


def test_an_exit_between_the_check_and_the_wait_ends_the_loop(monkeypatch):
    # Every running incarnation exits after the loop found it running
    # and before it waits: the wait must still return, on the exits.
    turns = _count_turns(monkeypatch)
    due = CounterChassis.due

    def late(self):
        for proc in self.running().values():
            proc.join()
        return due(self)

    monkeypatch.setattr(CounterChassis, "due", late)
    with _hang_guard():
        run = run_decentral("TSS", SpinWorkload(24, spins=50, veclen=4096), 2)
    assert run.recovered == 0 and run.results is not None
    assert len(turns) <= _turn_bound(turns[0], FaultPlan())
