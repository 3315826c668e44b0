"""WorkerPool: dispatch, fairness, death recovery, ledger audit."""

from __future__ import annotations

import asyncio
import dataclasses
import errno
import gc
import json
import multiprocessing
import os
import pickle
import random
import struct
import sys
import threading
import time
import tracemalloc
import warnings
import weakref

import pytest

from repro.obs import stream_digest
from repro.runtime.config import RuntimeConfig
from repro.service import pool as pool_module
from repro.service.jobs import job_from_spec
from repro.service.pool import JobRecord, WorkerPool, _take_messages
from repro.verify import audit_service_log

FAST_SPEC = {
    "scheme": "TSS",
    "workload": {"kind": "uniform", "size": 100, "unit": 1e-4},
    "cluster": {"workers": 2},
}
# "Slow" means wall-clock slow for the *worker process*: SS over a
# large loop makes the DES grind through one event pair per iteration
# (~2s), leaving a wide window to SIGKILL mid-job.
SLOW_SPEC = {
    "scheme": "SS",
    "workload": {"kind": "uniform", "size": 60000, "unit": 1e-4},
    "cluster": {"workers": 2},
}

SNAPPY = RuntimeConfig(
    poll_timeout=0.05,
    worker_deadline=20.0,
    heartbeat_interval=0.2,
    join_timeout=5.0,
)


class _Sink(object):
    """Completion collector usable as the pool's on_complete hook."""

    def __init__(self):
        self.done: dict[str, JobRecord] = {}
        self._event = threading.Event()

    def __call__(self, record: JobRecord) -> None:
        self.done[record.job_id] = record
        self._event.set()

    def wait_for(self, *job_ids: str, timeout: float = 120.0) -> None:
        deadline = time.monotonic() + timeout
        while not all(j in self.done for j in job_ids):
            remaining = deadline - time.monotonic()
            assert remaining > 0, (
                f"timed out; finished: {sorted(self.done)}"
            )
            self._event.wait(min(remaining, 0.2))
            self._event.clear()


def _record(job_id: str, tenant: str, spec: dict, **kw) -> JobRecord:
    return JobRecord(
        job_id=job_id, tenant=tenant, job=job_from_spec(spec), **kw
    )


def _body(record: JobRecord) -> dict:
    """The reply members a terminal record stored, decoded."""
    assert isinstance(record.body, bytes)
    return json.loads(record.body)


def _holds_only_scalars(record: JobRecord) -> bool:
    """A terminal record keeps scalars and where its body is: no job,
    no dict tree, no ``__dict__``."""
    return record.job is None and not hasattr(record, "__dict__") and all(
        value is None
        or isinstance(value, (str, bytes, int, float, pool_module._Spill))
        for value in (
            getattr(record, field.name)
            for field in dataclasses.fields(record)
        )
    )


class TestValidation:
    def test_size_must_be_positive(self):
        with pytest.raises(ValueError, match="size"):
            WorkerPool(size=0)

    def test_kill_worker_bounds(self):
        pool = WorkerPool(size=1, config=SNAPPY)
        with pytest.raises(ValueError, match="slot"):
            pool.kill_worker(5)
        # Not started: no live process to kill.
        assert pool.kill_worker(0) is False


class TestExecution:
    def test_single_job_digest_matches_one_shot(self):
        reference = stream_digest(
            job_from_spec(FAST_SPEC).run().obs_events
        )
        sink = _Sink()
        with WorkerPool(size=1, config=SNAPPY,
                        on_complete=sink) as pool:
            pool.submit(_record("j1", "alice", FAST_SPEC))
            sink.wait_for("j1")
        record = sink.done["j1"]
        assert record.state == "done"
        assert _body(record)["digest"] == reference == record.digest
        assert _body(record)["result"]["scheme"] == "TSS"
        assert _holds_only_scalars(record)

    def test_wire_spec_is_built_and_run_in_the_worker(self):
        """What the daemon stores: the admitted wire spec itself.  The
        worker builds it with ``job_from_spec`` -- the one-shot side of
        the digest contract -- and the terminal record lets it go."""
        spec = dict(FAST_SPEC, results=True)
        reference = job_from_spec(spec).run()
        sink = _Sink()
        with WorkerPool(size=1, config=SNAPPY,
                        on_complete=sink) as pool:
            pool.submit(JobRecord(job_id="j1", tenant="alice",
                                  job=dict(spec), want_results=True))
            sink.wait_for("j1")
        record = sink.done["j1"]
        assert record.state == "done"
        assert record.digest == stream_digest(reference.obs_events)
        assert _body(record)["result"] == json.loads(
            reference.to_json(True))
        assert _holds_only_scalars(record)

    def test_many_jobs_across_tenants_all_complete(self):
        sink = _Sink()
        ids = [f"j{i}" for i in range(6)]
        with WorkerPool(size=2, config=SNAPPY,
                        on_complete=sink) as pool:
            for i, job_id in enumerate(ids):
                pool.submit(_record(
                    job_id, f"tenant{i % 3}", FAST_SPEC
                ))
            sink.wait_for(*ids)
            assert pool.pending() == 0
        digests = {_body(sink.done[j])["digest"] for j in ids}
        assert len(digests) == 1  # identical jobs, identical digests
        report = audit_service_log(pool.log)
        assert report.ok, report.summary()

    def test_round_robin_interleaves_tenants(self):
        """With both tenants queued up before any dispatch, assignment
        order must alternate tenants, not drain one FIFO first."""
        sink = _Sink()
        pool = WorkerPool(size=1, config=SNAPPY, on_complete=sink)
        # Queue before starting so dispatch sees both tenants.
        ids = []
        for i in range(2):
            for tenant in ("a", "b"):
                job_id = f"{tenant}{i}"
                ids.append(job_id)
                pool.submit(_record(job_id, tenant, FAST_SPEC))
        with pool:
            sink.wait_for(*ids)
        assigns = [
            e["job"] for e in pool.log if e["ev"] == "assign"
        ]
        tenants = [j[0] for j in assigns]
        assert tenants in (["a", "b"] * 2, ["b", "a"] * 2), tenants

    def test_failing_job_reports_error(self):
        # conditional workload with a bogus predicate parameter is
        # caught at spec time; instead ship a job whose run raises:
        # scheme params unknown to the simulator.
        sink = _Sink()
        bad = dict(FAST_SPEC, params={"no_such_kwarg": 1})
        with WorkerPool(size=1, config=SNAPPY,
                        on_complete=sink) as pool:
            pool.submit(_record("bad", "alice", bad))
            sink.wait_for("bad")
        record = sink.done["bad"]
        assert record.state == "failed"
        assert "TypeError" in _body(record)["error"]
        assert record.digest is None and _holds_only_scalars(record)
        report = audit_service_log(pool.log)
        assert report.ok, report.summary()


class TestDeathRecovery:
    def _wait_busy(
        self, pool: WorkerPool, job_id: str, timeout: float = 15.0
    ) -> int:
        """The slot running ``job_id``, once it runs."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            record = pool.records[job_id]
            if record.state == "running":
                return record.worker
            time.sleep(0.02)
        raise AssertionError(f"{job_id} never started running")

    def test_sigkill_requeues_and_recovers_exactly_once(self):
        reference = stream_digest(
            job_from_spec(SLOW_SPEC).run().obs_events
        )
        sink = _Sink()
        with WorkerPool(size=1, config=SNAPPY,
                        on_complete=sink) as pool:
            pool.submit(_record("victim", "alice", SLOW_SPEC))
            slot = self._wait_busy(pool, "victim")
            assert pool.kill_worker(slot) is True
            sink.wait_for("victim")
        record = sink.done["victim"]
        assert record.state == "done"
        assert record.requeues == 1
        # The requeue re-dispatched the job the record still held; only
        # the terminal record lets go of it.
        assert _body(record)["digest"] == reference
        assert _holds_only_scalars(record)
        events = [e["ev"] for e in pool.log]
        assert "worker-death" in events and "requeue" in events
        audit_service_log(pool.log).raise_if_failed()

    def test_too_many_requeues_fails_terminally(self):
        sink = _Sink()
        with WorkerPool(size=1, config=SNAPPY, on_complete=sink,
                        max_requeues=1) as pool:
            pool.submit(_record("cursed", "alice", SLOW_SPEC))
            for _ in range(2):
                slot = self._wait_busy(pool, "cursed")
                pool.kill_worker(slot)
                time.sleep(0.3)  # let the loop revive + redispatch
            sink.wait_for("cursed")
        record = sink.done["cursed"]
        assert record.state == "failed"
        assert "too-many-requeues" in _body(record)["error"]
        assert _holds_only_scalars(record)
        audit_service_log(pool.log).raise_if_failed()

    def test_bystander_tenant_digest_unaffected_by_kill(self):
        """The acceptance scenario at pool level: killing the worker
        running tenant A's job must not perturb tenant B's digest."""
        ref_fast = stream_digest(
            job_from_spec(FAST_SPEC).run().obs_events
        )
        sink = _Sink()
        with WorkerPool(size=2, config=SNAPPY,
                        on_complete=sink) as pool:
            pool.submit(_record("a-slow", "alice", SLOW_SPEC))
            # Wait for alice's job to occupy a slot, then kill it.
            slot = self._wait_busy(pool, "a-slow")
            pool.submit(_record("b-fast", "bob", FAST_SPEC))
            pool.kill_worker(slot)
            sink.wait_for("a-slow", "b-fast")
        assert _body(sink.done["b-fast"])["digest"] == ref_fast
        assert sink.done["b-fast"].requeues == 0
        assert sink.done["a-slow"].state == "done"
        assert sink.done["a-slow"].requeues >= 1
        audit_service_log(pool.log).raise_if_failed()


class TestDeadlineScan:
    def test_wedged_worker_in_a_one_slot_pool_is_killed_on_time(self):
        """The liveness timer is armed for the nearest expiry (the
        master's rule, ``RuntimeConfig.wait_bound``): a scan that only
        ran every ``poll_timeout`` noticed a wedged worker up to 2 s
        late here."""
        import os
        import signal

        config = RuntimeConfig(
            poll_timeout=2.0, worker_deadline=0.4,
            heartbeat_interval=0.1, join_timeout=5.0,
        )
        with WorkerPool(size=1, config=config) as pool:
            _wait_until(
                "the worker to start",
                lambda: pool.worker_pids()[0] is not None,
            )
            # One beat has been read, so the timer is armed from a
            # heartbeat, not from the spawn.
            time.sleep(0.25)
            wedged = pool.worker_pids()[0]
            os.kill(wedged, signal.SIGSTOP)
            stopped = time.monotonic()
            try:
                _wait_until(
                    "the slot to be revived",
                    lambda: pool.worker_pids()[0] not in (None, wedged),
                    timeout=5.0,
                )
                took = time.monotonic() - stopped
            finally:
                try:
                    os.kill(wedged, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        assert took < 1.2, f"revived {took:.2f}s after the worker wedged"


class TestFailedSend:
    def test_failed_dispatch_send_retires_the_incarnation_at_once(self):
        """A send that fails on a live worker schedules its
        incarnation's retirement on the loop's next turn -- not
        ``poll_timeout`` later -- which requeues the job; the slot
        keeps the record until then, so nothing else is sent there."""
        lazy = RuntimeConfig(
            poll_timeout=5.0, worker_deadline=20.0,
            heartbeat_interval=0.2, join_timeout=5.0,
        )
        sink = _Sink()
        with WorkerPool(size=1, config=lazy, on_complete=sink) as pool:
            _wait_until("the worker to start",
                        lambda: pool.stats()["workers_live"] == 1)
            conn = pool._handles[0].conn

            def refuse(msg):
                raise OSError("injected send failure")

            conn.send = refuse  # this incarnation's pipe only
            started = time.monotonic()
            pool.submit(JobRecord(job_id="j1", tenant="alice",
                                  job=dict(FAST_SPEC)))
            sink.wait_for("j1", timeout=4.0)
            took = time.monotonic() - started
            ledger = list(pool.log)
        record = sink.done["j1"]
        assert record.state == "done" and record.requeues == 1
        assert took < 2.5, f"requeued {took:.2f}s after the failed send"
        audit_service_log(ledger).raise_if_failed()


def _wait_until(what: str, ready, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not ready():
        assert time.monotonic() < deadline, what
        time.sleep(0.01)


class TestTwoThreadDispatch:
    """Every dispatch runs on the pool's loop, whichever thread asks:
    a caller on the loop dispatches inline, a caller on another thread
    is handed over to it."""

    def test_submitter_dispatches_to_an_idle_slot(self):
        """On the loop, a submit to an idle slot is assigned, and sent,
        before ``submit`` returns."""

        async def scenario() -> WorkerPool:
            done = asyncio.get_running_loop().create_future()
            with WorkerPool(size=1, config=SNAPPY,
                            on_complete=done.set_result) as pool:
                record = _record("j1", "alice", FAST_SPEC)
                pool.submit(record)
                assert record.state == "running" and record.worker == 0
                assert record.started_at is not None
                assert await asyncio.wait_for(done, 60.0) is record
            return pool

        pool = asyncio.run(scenario())
        assert [e["ev"] for e in pool.log] == ["submit", "assign", "result"]

    def test_busy_pool_assigns_from_the_blockers_done_callback(self):
        """Nothing is idle when the second job arrives: the submit only
        enqueues, and the callback that handles the blocker's ``done``
        assigns it, before that callback reports the blocker."""
        blocker_spec = dict(SLOW_SPEC, workload={
            "kind": "uniform", "size": 6000, "unit": 1e-4})
        queued = _record("queued", "bob", FAST_SPEC)
        states_at_blocker_done: list[str] = []

        async def scenario() -> WorkerPool:
            finished = asyncio.get_running_loop().create_future()

            def on_complete(record: JobRecord) -> None:
                if record.job_id == "blocker":
                    states_at_blocker_done.append(queued.state)
                else:
                    finished.set_result(record)

            with WorkerPool(size=1, config=SNAPPY,
                            on_complete=on_complete) as pool:
                pool.submit(_record("blocker", "alice", blocker_spec))
                blocker = pool.records["blocker"]
                assert blocker.state == "running" and blocker.worker == 0
                pool.submit(queued)
                assert queued.state == "queued" and queued.worker == -1
                assert pool.stats()["queued_by_tenant"] == {"bob": 1}
                assert [pool.pending(t) for t in (None, "alice", "bob",
                                                  "carol")] == [2, 1, 1, 0]
                assert await asyncio.wait_for(finished, 60.0) is queued
            return pool

        pool = asyncio.run(scenario())
        assert queued.state == "done"
        assert states_at_blocker_done == ["running"]
        kinds = [(e["ev"], e["job"]) for e in pool.log]
        at = kinds.index(("result", "blocker"))
        assert kinds[at + 1] == ("assign", "queued")
        audit_service_log(pool.log).raise_if_failed()

    def test_concurrent_submitters_and_kills_are_exactly_once(
        self, seed: int = 20011
    ):
        """K submitter threads and a killer against a 2-slot pool: every
        call crosses over to the pool's loop, and the ledger must still
        read as if one careful thread had written it."""
        rng = random.Random(seed)
        submitters, per_thread, tenants = 4, 15, 3
        reference = stream_digest(
            job_from_spec(FAST_SPEC).run().obs_events
        )
        plans = [
            [(f"t{k}-j{m}", f"tenant{rng.randrange(tenants)}")
             for m in range(per_thread)]
            for k in range(submitters)
        ]
        gaps = [rng.uniform(0.0, 0.006)
                for _ in range(submitters * per_thread)]
        kills = [(rng.uniform(0.002, 0.012), rng.randrange(2))
                 for _ in range(12)]
        sink = _Sink()
        errors: list[BaseException] = []
        records: list[JobRecord] = []

        # Every round the submitters leave the barrier together and
        # meet slots the previous round's jobs have just freed.
        barrier = threading.Barrier(submitters)

        def submitter(k: int, pool: WorkerPool) -> None:
            try:
                for m, (job_id, tenant) in enumerate(plans[k]):
                    record = _record(job_id, tenant, FAST_SPEC)
                    records.append(record)
                    barrier.wait(timeout=60.0)
                    pool.submit(record)
                    time.sleep(gaps[k * per_thread + m])
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def killer(pool: WorkerPool, stop: threading.Event) -> None:
            try:
                for pause, slot in kills:
                    if stop.wait(pause):
                        return
                    pool.kill_worker(slot)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            # Far more requeues than kills: no job may fail of them.
            with WorkerPool(size=2, config=SNAPPY, on_complete=sink,
                            max_requeues=len(kills) + 1) as pool:
                stop = threading.Event()
                threads = [
                    threading.Thread(target=submitter, args=(k, pool))
                    for k in range(submitters)
                ]
                chaos = threading.Thread(
                    target=killer, args=(pool, stop))
                for thread in threads + [chaos]:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                    assert not thread.is_alive()
                sink.wait_for(
                    *(j for plan in plans for j, _ in plan),
                    timeout=60.0,
                )
                stop.set()
                chaos.join(timeout=60.0)
                assert not chaos.is_alive()
                assert pool.pending() == 0
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        log = pool.log
        audit_service_log(log).raise_if_failed()
        assert len(records) == submitters * per_thread
        for record in records:
            assert record.state == "done", (record.job_id, record.body)
            assert record.digest == reference
        # Per tenant, jobs were first assigned in the order submitted.
        for t in range(tenants):
            mine = [e for e in log if e["tenant"] == f"tenant{t}"]
            submitted = [e["job"] for e in mine if e["ev"] == "submit"]
            first_assign = list(dict.fromkeys(
                e["job"] for e in mine if e["ev"] == "assign"))
            assert first_assign == submitted, f"tenant{t}"
        # No slot ever held two live records.
        live: dict[int, str] = {}
        for entry in log:
            if entry["ev"] == "assign":
                assert entry["worker"] not in live, (entry, live)
                live[entry["worker"]] = entry["job"]
            elif entry["ev"] in ("result", "error", "worker-death"):
                assert live.pop(entry["worker"]) == entry["job"], entry
        assert not live


def _wedges_mid_send(conn, worker_id, heartbeat_interval):
    """A pool worker that takes a job, sends 64 KiB of a 1 MiB ``done``
    message, and goes silent for 3 s before it sends the rest."""
    msg = conn.recv()
    if msg[0] == "stop":
        return
    frame = pickle.dumps(("done", msg[1], None, bytes(1 << 20), (0, 0)))
    frame = struct.pack("!i", len(frame)) + frame
    os.write(conn.fileno(), frame[:1 << 16])
    time.sleep(3.0)
    try:
        os.write(conn.fileno(), frame[1 << 16:])
    except OSError:
        pass


class TestPipeReads:
    """The loop reads a worker's pipe as far as it has been written and
    never waits for the rest of a message."""

    def test_messages_split_anywhere_decode_as_sent(self):
        """``_take_messages`` reads ``Connection.send``'s framing,
        whatever the reads that delivered it."""
        sent = [
            ("hb", 0),
            ("done", "j1", "d" * 64, bytes(600_000), (1, 2)),
            ("ev", "j1", [{"kind": "assign", "t": 0.5}]),
        ]
        reader, writer = multiprocessing.Pipe()

        def send() -> None:
            for msg in sent:
                writer.send(msg)
            writer.close()

        sender = threading.Thread(target=send)
        sender.start()
        raw = bytearray()
        while chunk := os.read(reader.fileno(), 1 << 16):
            raw += chunk
        sender.join()
        reader.close()
        inbox, got = bytearray(), []
        for at in range(0, len(raw), 7919):
            inbox += raw[at:at + 7919]
            got += _take_messages(inbox)
        assert got == sent and not inbox
        # Past 2 GiB the length is -1 and then a "!Q" length.
        payload = pickle.dumps(("hb", 1))
        inbox = bytearray(struct.pack("!iQ", -1, len(payload)) + payload)
        assert _take_messages(inbox) == [("hb", 1)] and not inbox

    def test_a_worker_wedged_mid_send_does_not_stall_the_loop(
        self, monkeypatch
    ):
        """Part of a ``done`` message is all the loop reads: its timers
        keep firing, and the liveness deadline retires the silent
        incarnation.  A blocking ``recv`` held the loop (listener,
        timers, the liveness scan itself) until the worker sent the
        rest."""
        monkeypatch.setattr(
            pool_module, "service_worker_main", _wedges_mid_send)
        config = RuntimeConfig(
            poll_timeout=0.05, worker_deadline=0.5,
            heartbeat_interval=0.1, join_timeout=5.0,
        )

        async def scenario():
            done = asyncio.get_running_loop().create_future()
            ticks = []
            with WorkerPool(size=1, config=config, max_requeues=0,
                            on_complete=done.set_result) as pool:
                started = time.monotonic()
                pool.submit(JobRecord(job_id="j1", tenant="alice", job={}))
                while not done.done():
                    before = time.monotonic()
                    await asyncio.sleep(0.05)
                    ticks.append(time.monotonic() - before)
                took = time.monotonic() - started
            return done.result(), ticks, took, pool.log

        record, ticks, took, log = asyncio.run(scenario())
        assert max(ticks) < 0.5, f"the loop stalled {max(ticks):.2f}s"
        assert record.state == "failed"
        assert "too-many-requeues" in _body(record)["error"]
        assert took < 2.5, f"retired {took:.2f}s after the submit"
        audit_service_log(log).raise_if_failed()


class TestHandOver:
    def test_a_call_queued_as_the_loop_stops_runs_inline(self):
        """A loop that stops with a handed-over call still queued never
        runs it; the caller withdraws it and runs it itself instead of
        waiting forever."""
        with WorkerPool(size=1, config=SNAPPY) as pool:
            loop = pool._loop
            running, queued = threading.Event(), threading.Event()

            def stop_once_queued() -> None:
                running.set()
                queued.wait(5.0)
                loop.stop()  # exits before the call queued meanwhile

            loop.call_soon_threadsafe(stop_once_queued)
            assert running.wait(5.0)
            hand_over = loop.call_soon_threadsafe

            def spy(*args):
                handle = hand_over(*args)
                queued.set()
                return handle

            loop.call_soon_threadsafe = spy
            answers: list[dict] = []
            asker = threading.Thread(
                target=lambda: answers.append(pool.stats()), daemon=True)
            asker.start()
            asker.join(timeout=5.0)
            assert not asker.is_alive(), "the caller was stranded"
        assert answers[0]["workers"] == 1


#: SS draws one chunk per iteration: a 222 KB body with its trace
#: (one row per event), 63 KB without, in ~12 ms of worker time.
TRACED_SPEC = {
    "scheme": "SS",
    "workload": {"kind": "uniform", "size": 500, "unit": 1e-4},
    "cluster": {"workers": 2},
}


class TestSpill:
    """A finished job's body lives in the pool's spill file; its
    record keeps an offset and a length."""

    def test_heap_per_job_does_not_grow_with_its_body(self):
        """The same job with and without its trace: the bodies differ
        by ~159 KB, the heap each finished job keeps must not.

        The heap is read on the pool's loop.  Read from this thread, it
        could land while the loop thread is inside an ``os.read`` (a
        heartbeat's, once the jobs are done), whose 256 KB buffer is
        live for that instant only and skews the deltas beside that
        mark by +-16 KB a job.  Each arm also takes the median of three
        per-batch deltas."""
        k = 16

        @pool_module._on_loop
        def heap_mark(pool: WorkerPool) -> int:
            assert pool.pending() == 0
            gc.collect()
            return tracemalloc.get_traced_memory()[0]

        def per_job(want_trace: bool) -> float:
            sink = _Sink()
            marks = []
            with WorkerPool(size=1, config=SNAPPY,
                            on_complete=sink) as pool:
                for batch in range(4):  # the first one warms up
                    ids = [f"j{batch}.{i}" for i in range(k)]
                    for job_id in ids:
                        pool.submit(JobRecord(
                            job_id=job_id, tenant="alice",
                            job=dict(TRACED_SPEC), want_trace=want_trace,
                        ))
                    sink.wait_for(*ids)
                    marks.append(heap_mark(pool))
            assert len(sink.done[ids[0]].body) > (
                200_000 if want_trace else 0)
            deltas = sorted(b - a for a, b in zip(marks, marks[1:]))
            return deltas[1] / k

        gc.collect()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            traced, plain = per_job(True), per_job(False)
        finally:
            if not tracing:
                tracemalloc.stop()
        assert abs(traced - plain) < 2048, (traced, plain)

    def test_a_failed_spill_write_keeps_that_body_in_memory(
        self, monkeypatch
    ):
        """ENOSPC on one job's write: that record keeps its bytes, the
        next job spills again, and every body reads back after stop."""
        append = pool_module._Spill.append
        writes = []

        def full_once(spill, data):
            writes.append(len(data))
            if len(writes) == 2:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return append(spill, data)

        monkeypatch.setattr(pool_module._Spill, "append", full_once)
        sink = _Sink()
        ids = ["j0", "j1", "j2"]
        with WorkerPool(size=1, config=SNAPPY,
                        on_complete=sink) as pool:
            for job_id in ids:  # one at a time: the write order is fixed
                pool.submit(_record(job_id, "alice", FAST_SPEC))
                sink.wait_for(job_id)
        first, full, later = (sink.done[j] for j in ids)
        assert full._spill is None and full._held is not None
        assert first._spill is later._spill is pool._spill
        assert pool._spill.end == 2 * len(first.body)
        assert first.body == full.body == later.body
        assert full.read_body(1) == later.read_body(1) == full.body[1:]
        assert _body(full)["digest"] == full.digest
        assert _holds_only_scalars(full) and _holds_only_scalars(later)

    def test_the_spill_file_closes_with_its_last_holder(self):
        """The file outlives ``stop`` while a record points into it, and
        is closed, not left to warn, once nothing does."""
        sink = _Sink()
        with WorkerPool(size=1, config=SNAPPY,
                        on_complete=sink) as pool:
            pool.submit(_record("j1", "alice", FAST_SPEC))
            sink.wait_for("j1")
        spill_file = weakref.ref(pool._spill._file)
        del pool
        gc.collect()
        assert _body(sink.done["j1"])["result"]["scheme"] == "TSS"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            del sink
            gc.collect()
        assert not [
            w for w in caught if issubclass(w.category, ResourceWarning)
        ]
        assert spill_file() is None
