"""Failure-injection tests: the master must survive worker loss.

These tests drive :func:`repro.runtime.master.master_loop` directly
with fake in-process "connections", so worker death is deterministic
(no real process juggling, no timing flake).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chaos import FaultPlan, WorkerDeath, WorkerRestart
from repro.core import make
from repro.runtime import RuntimeConfig, plan_time_scale, run_parallel
from repro.runtime.master import master_loop
from repro.runtime.messages import Assign, Request, Terminate
from repro.verify import audit_run
from repro.workloads import SpinWorkload, UniformWorkload

#: Plan time of the real-process kills, in units of
#: :func:`plan_time_scale`: about a third into the ideal parallel run,
#: so the victim owns a chunk whatever the host's speed.
KILL_AT = 0.9


@pytest.fixture(scope="module")
def spin():
    """(workload, serial result, measured plan time scale) -- compute-
    bound and deterministic, so a SIGKILL lands mid-loop."""
    wl = SpinWorkload(60, spins=200, veclen=4096)
    return wl, wl.execute_serial(), plan_time_scale(wl, 3)


class ScriptedWorker(object):
    """A fake pipe end that computes chunks in-process.

    ``die_after`` kills the "worker" after that many completed chunks:
    the next master read raises EOFError, as a real closed pipe would.
    """

    def __init__(self, wid: int, workload, die_after: int | None = None):
        self.wid = wid
        self.workload = workload
        self.die_after = die_after
        self.completed = 0
        self.dead = False
        self.terminated = False
        self._outbox = [Request(worker_id=wid)]
        self._pending = None

    # master-side interface ------------------------------------------------
    def recv(self):
        if self.dead:
            raise EOFError
        if not self._outbox:
            raise AssertionError("master read with nothing to say")
        return self._outbox.pop(0)

    def send(self, msg):
        if self.dead:
            raise BrokenPipeError
        if isinstance(msg, Terminate):
            self.terminated = True
            return
        assert isinstance(msg, Assign)
        if self.die_after is not None \
                and self.completed >= self.die_after:
            self.dead = True
            return
        payload = self.workload.execute(msg.start, msg.stop)
        self.completed += 1
        self._outbox.append(
            Request(worker_id=self.wid, result=(msg.start, payload))
        )

    def fileno(self) -> int:  # pragma: no cover - not used by fake wait
        return -1


def run_master(workload, workers, scheme="CSS(10)", **scheme_kwargs):
    scheduler = make(scheme, workload.size, len(workers),
                     **scheme_kwargs)
    conns = {w.wid: w for w in workers}

    # Monkeypatch-free fake of multiprocessing.connection.wait: ready =
    # live workers with queued messages.
    import repro.runtime.master as master_mod

    original_wait = master_mod.wait

    def fake_wait(conn_list, timeout=None):
        ready = [c for c in conn_list if not c.dead and c._outbox]
        dead = [c for c in conn_list if c.dead]
        return ready + dead

    master_mod.wait = fake_wait
    try:
        return master_loop(scheduler, conns)
    finally:
        master_mod.wait = original_wait


class TestWorkerDeath:
    def test_lost_chunk_is_reassigned(self):
        wl = UniformWorkload(100)
        workers = [
            ScriptedWorker(0, wl, die_after=2),
            ScriptedWorker(1, wl),
        ]
        result = run_master(wl, workers)
        assert result.requeued >= 1
        # Every iteration was computed exactly once.
        spans = sorted((s, e) for _w, s, e in result.chunks)
        cursor = 0
        for start, stop in spans:
            assert start == cursor
            cursor = stop
        assert cursor == 100
        # And the collected results cover the loop.
        got = np.concatenate(
            [r for _s, r in sorted(result.results, key=lambda x: x[0])]
        )
        np.testing.assert_array_equal(got, wl.costs())

    def test_immediate_death(self):
        wl = UniformWorkload(50)
        workers = [
            ScriptedWorker(0, wl, die_after=0),
            ScriptedWorker(1, wl),
        ]
        result = run_master(wl, workers)
        assert result.assigned_iterations() == 50

    def test_all_but_one_die(self):
        wl = UniformWorkload(80)
        workers = [
            ScriptedWorker(0, wl, die_after=1),
            ScriptedWorker(1, wl, die_after=1),
            ScriptedWorker(2, wl),
        ]
        result = run_master(wl, workers)
        assert result.assigned_iterations() == 80
        assert workers[2].terminated

    def test_no_deaths_no_requeue(self):
        wl = UniformWorkload(60)
        workers = [ScriptedWorker(0, wl), ScriptedWorker(1, wl)]
        result = run_master(wl, workers)
        assert result.requeued == 0
        assert all(w.terminated for w in workers)

    def test_death_with_distributed_scheme(self):
        wl = UniformWorkload(200)
        workers = [
            ScriptedWorker(0, wl, die_after=1),
            ScriptedWorker(1, wl),
            ScriptedWorker(2, wl),
        ]
        result = run_master(wl, workers, scheme="DFSS")
        assert result.assigned_iterations() == 200


class TestWedgedWorker:
    """Alive but silent: no EOF ever comes, only the deadline can tell."""

    def test_hung_worker_is_dropped_while_a_sibling_heartbeats(
        self, monkeypatch
    ):
        """Silence is measured every turn, not every idle poll.

        The default shape -- ``poll_timeout`` above
        ``heartbeat_interval`` -- means a heartbeating sibling (a
        parked one here) keeps ``wait`` from ever timing out.  The
        wedged worker must still be dropped at its deadline and its
        chunk finished by the sibling.
        """
        import time

        import repro.runtime.master as master_mod
        from repro.runtime.messages import Heartbeat

        beat, deadline = 0.02, 0.3

        class Wedged(ScriptedWorker):
            def send(self, msg):
                """Takes its chunk and never says another word."""

            def close(self):
                self.dead = True

        class Chatty(ScriptedWorker):
            next_beat = 0.0

            def recv(self):
                if self._outbox:
                    return self._outbox.pop(0)
                self.next_beat = time.monotonic() + beat
                return Heartbeat(self.wid)

            def send(self, msg):
                super().send(msg)
                self.next_beat = time.monotonic() + beat

        wl = UniformWorkload(20)
        workers = [Wedged(0, wl), Chatty(1, wl)]
        started = time.monotonic()

        def fake_wait(conn_list, timeout=None):
            until = time.monotonic() + timeout
            while True:
                now = time.monotonic()
                ready = [
                    c for c in conn_list if c._outbox or (
                        isinstance(c, Chatty) and not c.terminated
                        and now >= c.next_beat
                    )
                ]
                if ready or now >= until:
                    return ready
                assert now - started < 1.0, (
                    "wedged worker never dropped: the deadline scan "
                    "is starved by the sibling's heartbeats"
                )
                time.sleep(0.002)

        monkeypatch.setattr(master_mod, "wait", fake_wait)
        result = master_loop(
            make("CSS(10)", wl.size, 2), {w.wid: w for w in workers},
            config=RuntimeConfig(
                poll_timeout=0.1, worker_deadline=deadline,
                heartbeat_interval=beat,
            ),
        )
        elapsed = time.monotonic() - started
        assert deadline <= elapsed < 1.0
        assert result.timeouts == 1 and result.requeued == 1
        assert result.chunks == [(1, 10, 20), (1, 0, 10)]
        assert workers[1].terminated


class TestRealProcessDeath:
    def test_sigkilled_worker_does_not_hang_run(self, tmp_path):
        """End-to-end: a real worker process is killed mid-run."""
        import multiprocessing as mp
        import os
        import signal

        from repro.core import make as make_scheme
        from repro.runtime.master import master_loop as real_master
        from repro.runtime.worker import worker_main

        wl = UniformWorkload(40)
        ctx = mp.get_context("fork")
        pipes, procs = {}, []
        for wid in range(3):
            parent, child = ctx.Pipe()
            pipes[wid] = parent
            proc = ctx.Process(
                target=worker_main,
                args=(child, wl, wid, str(tmp_path / f"shard-{wid}")),
                daemon=True,
            )
            proc.start()
            procs.append(proc)
        # Kill worker 0 outright; the master must reassign its chunk.
        os.kill(procs[0].pid, signal.SIGKILL)
        procs[0].join()
        scheduler = make_scheme("CSS(5)", wl.size, 3)
        result = real_master(scheduler, pipes)
        assert result.assigned_iterations() == 40
        for proc in procs[1:]:
            proc.join(timeout=10)

    def test_sigkill_mid_loop_result_equals_fault_free_run(self, spin):
        """Kill a worker while it is actually computing.

        The run must finish on the survivors with results bit-identical
        to the fault-free execution -- the acceptance criterion for the
        runtime's fail-stop hardening.
        """
        wl, serial, scale = spin
        plan = FaultPlan(events=(WorkerDeath(worker=1, at=KILL_AT),))
        run = run_parallel("CSS", wl, 3, plan=plan, time_scale=scale, k=6)
        audit_run(run, workload=wl, scheme="CSS", workers=3,
                  k=6).raise_if_failed()
        np.testing.assert_array_equal(run.results, serial)

    def test_sigkill_then_restart_rejoins_and_result_is_exact(self, spin):
        """Kill one incarnation mid-run, admit a fresh one, finish.

        Exercises the restart re-admission path: the replacement pipe
        must not mask the dead incarnation's EOF (its outstanding chunk
        is requeued exactly once).
        """
        wl, serial, scale = spin
        plan = FaultPlan(events=(
            WorkerDeath(worker=1, at=KILL_AT),
            WorkerRestart(worker=1, at=2 * KILL_AT),
        ))
        run = run_parallel("CSS", wl, 3, plan=plan, time_scale=scale, k=6)
        audit_run(run, workload=wl, scheme="CSS",
                  workers=3, k=6).raise_if_failed()
        assert run.requeued >= 1
        np.testing.assert_array_equal(run.results, serial)

    @pytest.mark.parametrize("restart", [False, True])
    @pytest.mark.parametrize("victim", [0, 1, 2])
    def test_sigkill_of_any_worker_is_noticed_by_eof(
        self, spin, victim, restart
    ):
        """A death is noticed at the next poll, not at the deadline.

        Whichever worker dies, its pipe must read EOF: no sibling may
        have inherited the victim's end of it (the chassis closes the
        parent's copy before the next fork).  With a 5 s deadline the
        run finishing in a fraction of it *is* the EOF detection.
        """
        wl, serial, scale = spin
        events = [WorkerDeath(worker=victim, at=KILL_AT)]
        if restart:
            events.append(WorkerRestart(worker=victim, at=2 * KILL_AT))
        run = run_parallel(
            "CSS", wl, 3, plan=FaultPlan(events=tuple(events)),
            time_scale=scale, k=6,
            config=RuntimeConfig(worker_deadline=5.0,
                                 heartbeat_interval=0.5,
                                 poll_timeout=0.25),
        )
        audit_run(run, workload=wl, scheme="CSS", workers=3,
                  k=6).raise_if_failed()
        assert run.requeued >= 1
        np.testing.assert_array_equal(run.results, serial)
        assert run.elapsed < 2.5
