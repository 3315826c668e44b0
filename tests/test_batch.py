"""Tests for repro.batch: process-parallel experiment fan-out."""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import signal
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.batch import (
    ENV_JOBS,
    SimJob,
    resolve_jobs,
    run_batch,
    stream_batch,
)
from repro.core import names
from repro.experiments import paper_cluster, paper_workload
from repro.simulation import ClusterSpec, NodeSpec
from repro.workloads import (
    GaussianPeakWorkload,
    LinearWorkload,
    UniformWorkload,
)


@pytest.fixture(scope="module")
def batch_workload():
    return paper_workload(width=240, height=120)


@pytest.fixture(scope="module")
def batch_cluster(batch_workload):
    return paper_cluster(batch_workload, serial_seconds=60.0)


def all_scheme_jobs(workload, cluster) -> list[SimJob]:
    jobs = [
        SimJob(scheme=scheme, workload=workload, cluster=cluster)
        for scheme in names()
    ]
    jobs.append(SimJob(
        scheme="TreeS", workload=workload, cluster=cluster,
        engine="tree", params=dict(weighted=True, grain=8),
    ))
    return jobs


class TestSimJob:
    def test_key_is_deterministic(self, batch_workload, batch_cluster):
        a = SimJob("TSS", batch_workload, batch_cluster)
        b = SimJob("TSS", paper_workload(width=240, height=120),
                   paper_cluster(paper_workload(width=240, height=120),
                                 serial_seconds=60.0))
        assert a.key == b.key

    def test_key_distinguishes_inputs(self, batch_workload,
                                      batch_cluster):
        base = SimJob("TSS", batch_workload, batch_cluster)
        assert SimJob("FSS", batch_workload, batch_cluster).key \
            != base.key
        assert SimJob("TSS", batch_workload, batch_cluster,
                      tag="x").key != base.key
        assert SimJob("TSS", batch_workload, batch_cluster,
                      params=dict(alpha=3.0)).key != base.key
        other_cluster = paper_cluster(
            batch_workload, serial_seconds=30.0
        )
        assert SimJob("TSS", batch_workload, other_cluster).key \
            != base.key

    def test_key_tells_signatureless_workloads_apart(self, tmp_path):
        """Regression: two slopes of one LinearWorkload (no
        ``cost_signature``) shared a key, so a resumed sweep handed
        one the other's persisted result."""
        cluster = ClusterSpec(nodes=[
            NodeSpec(name=f"n{i}", speed=100.0) for i in range(3)
        ])
        ja = SimJob("TSS", LinearWorkload(200, slope=1.0), cluster)
        jb = SimJob("TSS", LinearWorkload(200, slope=3.0), cluster)
        assert ja.key != jb.key
        assert ja.key == SimJob(
            "TSS", LinearWorkload(200, slope=1.0), cluster).key
        path = str(tmp_path / "sweep.jsonl")
        run_batch([ja], persist=path)
        resumed = run_batch([jb], persist=path, resume=True)[0]
        assert resumed.t_p == jb.run().t_p != ja.run().t_p

    def test_rejects_unknown_engine(self, batch_workload,
                                    batch_cluster):
        with pytest.raises(ValueError):
            SimJob("TSS", batch_workload, batch_cluster,
                   engine="quantum")

    def test_job_is_picklable(self, batch_workload, batch_cluster):
        job = SimJob("DTSS", batch_workload, batch_cluster)
        clone = pickle.loads(pickle.dumps(job))
        assert clone.key == job.key
        assert clone.run().t_p == job.run().t_p

    def test_pickle_ships_costs_not_columns(self, batch_workload):
        batch_workload.costs()
        clone = pickle.loads(pickle.dumps(batch_workload))
        # The cost vector travels with the job...
        assert clone._costs is not None
        assert np.array_equal(clone.costs(), batch_workload.costs())
        # ...but the Mandelbrot column memo does not.
        assert not clone.inner._columns


class TestRunBatch:
    def test_results_in_submission_order(self, batch_workload,
                                         batch_cluster):
        jobs = [
            SimJob(s, batch_workload, batch_cluster)
            for s in ("TSS", "FSS", "GSS")
        ]
        results = run_batch(jobs, n_jobs=1)
        assert [r.scheme for r in results] == ["TSS", "FSS", "GSS"]

    def test_parallel_equals_serial_for_every_scheme(
        self, batch_workload, batch_cluster
    ):
        jobs = all_scheme_jobs(batch_workload, batch_cluster)
        serial = run_batch(jobs, n_jobs=1)
        parallel = run_batch(jobs, n_jobs=4)
        assert len(serial) == len(parallel) == len(names()) + 1
        for s, p in zip(serial, parallel):
            assert s.scheme == p.scheme
            assert s.t_p == p.t_p
            assert s.total_chunks == p.total_chunks
            assert [w.row() for w in s.workers] \
                == [w.row() for w in p.workers]

    def test_parallel_collect_results_bit_identical(self):
        wl = GaussianPeakWorkload(120, amplitude=9.0)
        cluster = ClusterSpec(nodes=[
            NodeSpec(name=f"n{i}", speed=100.0) for i in range(3)
        ])
        jobs = [SimJob("TSS", wl, cluster,
                       params=dict(collect_results=True))]
        serial = run_batch(jobs, n_jobs=1)[0]
        parallel = run_batch(jobs * 2, n_jobs=2)[0]
        assert np.array_equal(serial.results, parallel.results)

    def test_empty_batch(self):
        assert run_batch([], n_jobs=4) == []

    def test_rejects_non_jobs(self):
        with pytest.raises(TypeError):
            run_batch(["TSS"], n_jobs=1)

    def test_batch_results_pass_the_auditor(self, batch_workload,
                                            batch_cluster):
        from repro.verify import audit_sim

        jobs = all_scheme_jobs(batch_workload, batch_cluster)
        for job, result in zip(jobs, run_batch(jobs, n_jobs=2)):
            scheme = None if job.engine == "tree" else job.scheme
            audit_sim(result, batch_workload.size,
                      scheme=scheme).raise_if_failed()

    def test_uncacheable_workload_costs_resolved_in_parent(self):
        wl = UniformWorkload(50, unit=2.0)
        cluster = ClusterSpec(nodes=[NodeSpec(name="n0", speed=10.0)])
        results = run_batch(
            [SimJob("SS", wl, cluster)], n_jobs=1
        )
        assert results[0].total_iterations == 50
        assert wl._costs is not None  # warmed by run_batch


def small_jobs(n=5) -> list[SimJob]:
    """Cheap, distinct, deterministic jobs (distinct keys via tag)."""
    wl = UniformWorkload(60, unit=2.0)
    cluster = ClusterSpec(nodes=[
        NodeSpec(name=f"n{i}", speed=50.0 + 10.0 * i) for i in range(3)
    ])
    schemes = ["SS", "CSS(4)", "GSS", "TSS", "FSS"]
    return [
        SimJob(schemes[i % len(schemes)], wl, cluster, tag=f"j{i}")
        for i in range(n)
    ]


def result_rows(result):
    """The comparable core of a SimResult (exact, per-chunk)."""
    return (
        result.scheme, result.t_p, result.events,
        [(c.worker, c.start, c.stop, c.assigned_at, c.completed_at)
         for c in result.chunks],
        [w.row() for w in result.workers],
    )


class _SyncPool(object):
    """Executor stub that runs inline and counts tasks and their jobs."""

    _max_workers = 2

    def __init__(self):
        self.submitted = 0  # tasks
        self.jobs = 0

    def submit(self, fn, jobs):
        self.submitted += 1
        self.jobs += len(jobs)
        fut = Future()
        fut.set_result(fn(jobs))
        return fut


@dataclasses.dataclass(frozen=True)
class _KillJob(SimJob):
    """A job that SIGTERMs its own process when run (sequential path)."""

    def run(self):
        os.kill(os.getpid(), signal.SIGTERM)
        time.sleep(5.0)  # interrupted by the translated signal
        raise AssertionError("SIGTERM was not delivered")


class TestStreamBatch:
    def test_yields_submission_order_and_matches_run_batch(self):
        jobs = small_jobs()
        streamed = list(stream_batch(jobs))
        assert [idx for idx, _ in streamed] == list(range(len(jobs)))
        straight = run_batch(jobs)
        for (_, a), b in zip(streamed, straight):
            assert result_rows(a) == result_rows(b)

    def test_persist_writes_one_flushed_line_per_job(self, tmp_path):
        jobs = small_jobs()
        path = str(tmp_path / "sweep.jsonl")
        run_batch(jobs, persist=path)
        lines = [json.loads(line)
                 for line in open(path, encoding="utf-8")]
        assert [rec["key"] for rec in lines] == [job.key for job in jobs]
        assert [rec["index"] for rec in lines] == list(range(len(jobs)))
        manifest = json.load(open(path + ".manifest.json"))
        assert manifest == {
            "total": len(jobs), "done": len(jobs), "complete": True,
        }

    def test_resume_skips_persisted_jobs(self, tmp_path, monkeypatch):
        jobs = small_jobs()
        path = str(tmp_path / "sweep.jsonl")
        first = run_batch(jobs, persist=path)
        # A resumed sweep must not execute anything: running a job now
        # is an error.
        monkeypatch.setattr(
            SimJob, "run",
            lambda self: (_ for _ in ()).throw(
                AssertionError("resume re-ran a persisted job")),
        )
        second = run_batch(jobs, persist=path, resume=True)
        for a, b in zip(first, second):
            assert result_rows(a) == result_rows(b)
        # No duplicate lines were appended.
        assert len(open(path, encoding="utf-8").readlines()) == len(jobs)

    def test_partial_resume_runs_only_the_remainder(self, tmp_path):
        jobs = small_jobs(6)
        path = str(tmp_path / "sweep.jsonl")
        # Persist the first three jobs only.
        run_batch(jobs[:3], persist=path)
        runs = []
        original = SimJob.run

        def counting_run(self):
            runs.append(self.tag)
            return original(self)

        try:
            SimJob.run = counting_run
            resumed = run_batch(jobs, persist=path, resume=True)
        finally:
            SimJob.run = original
        assert runs == ["j3", "j4", "j5"]
        assert [result_rows(r) for r in resumed] \
            == [result_rows(r) for r in run_batch(jobs)]

    def test_resume_reads_the_earlier_line_format(self, tmp_path,
                                                  monkeypatch):
        """A line used to be ``json.dumps`` of one dict holding
        ``result.to_dict()``; it is now spliced from ``to_json`` text.
        Both parse to the same record, and one file may hold both."""
        jobs = small_jobs(6)
        results = run_batch(jobs)

        def record(i):
            return {
                "key": jobs[i].key, "index": i,
                "scheme": jobs[i].scheme, "engine": jobs[i].engine,
                "tag": jobs[i].tag, "result": results[i].to_dict(),
            }

        path = str(tmp_path / "sweep.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(3):
                fh.write(json.dumps(record(i)) + "\n")
        runs = []
        original = SimJob.run
        monkeypatch.setattr(
            SimJob, "run",
            lambda self: runs.append(self.tag) or original(self),
        )
        for expected_runs in (["j3", "j4", "j5"], []):
            runs.clear()
            resumed = run_batch(jobs, persist=path, resume=True)
            assert runs == expected_runs
            assert [result_rows(r) for r in resumed] \
                == [result_rows(r) for r in results]
        lines = [json.loads(line)
                 for line in open(path, encoding="utf-8")]
        assert lines == [record(i) for i in range(6)]

    def test_resume_tolerates_torn_tail_line(self, tmp_path):
        jobs = small_jobs(3)
        path = str(tmp_path / "sweep.jsonl")
        run_batch(jobs[:2], persist=path)
        # Simulate a sweep killed mid-write: torn, unterminated tail.
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "dead-beef", "resu')
        resumed = run_batch(jobs, persist=path, resume=True)
        assert len(resumed) == 3
        # The torn line was newline-patched and skipped; the new record
        # starts on its own clean line after it.
        lines = open(path, encoding="utf-8").read().splitlines()
        assert len(lines) == 4
        assert json.loads(lines[-1])["key"] == jobs[2].key

    def test_resume_warns_and_rewrites_torn_tail(
        self, tmp_path, caplog
    ):
        """The torn-tail skip is announced, and the half-written job
        re-runs and is rewritten whole (skip-and-rewrite)."""
        import logging

        jobs = small_jobs(3)
        path = str(tmp_path / "sweep.jsonl")
        run_batch(jobs[:2], persist=path)
        # Kill mid-write of job 2's record: its key is readable, but
        # the record is torn -- resume must treat the job as not done.
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"key": jobs[2].key})[:-3])
        with caplog.at_level(logging.WARNING, logger="repro.batch"):
            resumed = run_batch(jobs, persist=path, resume=True)
        assert any("skipped 1" in rec.message for rec in caplog.records)
        assert len(resumed) == 3
        lines = open(path, encoding="utf-8").read().splitlines()
        # 2 clean + 1 torn + 1 rewritten-whole record
        assert len(lines) == 4
        assert json.loads(lines[-1])["key"] == jobs[2].key
        assert result_rows(resumed[2]) \
            == result_rows(run_batch([jobs[2]])[0])

    def test_resume_tolerates_parsed_record_without_key(self, tmp_path):
        """A tail line that *parses* but is not a record (e.g. torn at
        a coincidentally-valid point, or foreign content) must be
        skipped, not crash the resume with a KeyError."""
        jobs = small_jobs(3)
        path = str(tmp_path / "sweep.jsonl")
        run_batch(jobs[:2], persist=path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"index": 7}\n')   # valid JSON, no "key"
            fh.write('["not", "ours"]\n')  # valid JSON, not an object
        resumed = run_batch(jobs, persist=path, resume=True)
        assert [result_rows(r) for r in resumed] \
            == [result_rows(r) for r in run_batch(jobs)]

    def test_interrupt_flushes_results_and_manifest(self, tmp_path):
        """A sweep killed mid-run persists everything finished plus a
        complete=false manifest, and resume finishes the job."""
        jobs = small_jobs(5)
        path = str(tmp_path / "sweep.jsonl")
        seen = []
        with pytest.raises(KeyboardInterrupt):
            for idx, _result in stream_batch(jobs, persist=path):
                seen.append(idx)
                if idx == 1:
                    raise KeyboardInterrupt
        assert seen == [0, 1]
        manifest = json.load(open(path + ".manifest.json"))
        assert manifest == {"total": 5, "done": 2, "complete": False}
        assert len(open(path, encoding="utf-8").readlines()) == 2
        resumed = run_batch(jobs, persist=path, resume=True)
        assert [result_rows(r) for r in resumed] \
            == [result_rows(r) for r in run_batch(jobs)]
        manifest = json.load(open(path + ".manifest.json"))
        assert manifest == {"total": 5, "done": 5, "complete": True}

    def test_early_break_writes_partial_manifest(self, tmp_path):
        jobs = small_jobs(4)
        path = str(tmp_path / "sweep.jsonl")
        for idx, _result in stream_batch(jobs, persist=path):
            if idx == 0:
                break
        manifest = json.load(open(path + ".manifest.json"))
        assert manifest == {"total": 4, "done": 1, "complete": False}

    def test_sigterm_flushes_like_ctrl_c(self, tmp_path):
        """Regression: a killed sweep (SIGTERM) must leave resumable
        state -- finished lines on disk and a partial manifest."""
        jobs = small_jobs(4)
        killer = _KillJob(
            jobs[2].scheme, jobs[2].workload, jobs[2].cluster,
            tag=jobs[2].tag,
        )
        path = str(tmp_path / "sweep.jsonl")
        previous = signal.getsignal(signal.SIGTERM)
        with pytest.raises(KeyboardInterrupt):
            run_batch([jobs[0], jobs[1], killer, jobs[3]], persist=path)
        # Handler restored after the sweep.
        assert signal.getsignal(signal.SIGTERM) is previous
        manifest = json.load(open(path + ".manifest.json"))
        assert manifest == {"total": 4, "done": 2, "complete": False}
        assert len(open(path, encoding="utf-8").readlines()) == 2
        resumed = run_batch(jobs, persist=path, resume=True)
        assert [result_rows(r) for r in resumed] \
            == [result_rows(r) for r in run_batch(jobs)]

    def test_window_bounds_inflight_submissions(self):
        jobs = small_jobs(10)
        pool = _SyncPool()
        gen = stream_batch(jobs, n_jobs=4, window=3, pool=pool)
        next(gen)
        # Only the window is submitted ahead of the consumer.
        assert pool.submitted <= 3
        consumed = 1
        for _ in gen:
            consumed += 1
            assert pool.submitted <= consumed + 3
        assert pool.submitted == len(jobs)

    @pytest.mark.parametrize("window", [0, -1])
    def test_window_below_one_rejected_eagerly(self, window):
        with pytest.raises(ValueError, match="window"):
            stream_batch(small_jobs(2), window=window)

    @pytest.mark.parametrize("window, n, task", [
        (None, 21, 4), (8, 21, 2), (5, 21, 1), (None, 7, 1),
    ])
    def test_tasks_of_several_jobs_stay_inside_the_window(
        self, window, n, task
    ):
        """The pool gets tasks of ``window // (2 x workers)`` jobs (a
        batch shorter than the window is cut likewise), results come
        out in submission order, and no more than ``window`` jobs are
        ever submitted ahead of the consumer."""
        jobs = small_jobs(n)
        pool = _SyncPool()  # two workers: the default window is 16
        bound = window or 16
        consumed = 0
        order = []
        for idx, result in stream_batch(jobs, window=window, pool=pool):
            assert pool.jobs <= consumed + bound
            order.append(idx)
            assert result_rows(result) == result_rows(jobs[idx].run())
            consumed += 1
        assert order == list(range(len(jobs)))
        assert pool.jobs == len(jobs)
        assert pool.submitted == -(-len(jobs) // task)

    def test_resumed_indices_inside_a_task_range(self, tmp_path):
        jobs = small_jobs(20)
        path = str(tmp_path / "sweep.jsonl")
        held = [1, 2, 6]
        run_batch([jobs[i] for i in held], persist=path)
        pool = _SyncPool()
        resumed = list(stream_batch(jobs, persist=path, resume=True,
                                    pool=pool))
        assert [idx for idx, _ in resumed] == list(range(len(jobs)))
        assert [result_rows(r) for _, r in resumed] \
            == [result_rows(r) for r in run_batch(jobs)]
        # Only the remainder ran, in tasks of four cut at the
        # persisted indices: [0] [3-5] [7-10] [11-14] [15-18] [19].
        assert pool.jobs == len(jobs) - len(held)
        assert pool.submitted == 6
        lines = [json.loads(line)
                 for line in open(path, encoding="utf-8")]
        assert sorted(rec["key"] for rec in lines) \
            == sorted(job.key for job in jobs)

    def test_pool_early_break_counts_yielded_jobs(self, tmp_path):
        """A task's finished but unyielded results are neither counted
        nor persisted: the manifest and the JSONL agree."""
        jobs = small_jobs(8)
        path = str(tmp_path / "sweep.jsonl")
        for idx, _result in stream_batch(jobs, persist=path,
                                         pool=_SyncPool()):
            if idx == 1:
                break
        manifest = json.load(open(path + ".manifest.json"))
        assert manifest == {"total": 8, "done": 2, "complete": False}
        assert len(open(path, encoding="utf-8").readlines()) == 2

    def test_pool_sigterm_flushes_like_ctrl_c(self, tmp_path):
        jobs = small_jobs(24)
        killer = _KillJob(
            jobs[17].scheme, jobs[17].workload, jobs[17].cluster,
            tag=jobs[17].tag,
        )
        path = str(tmp_path / "sweep.jsonl")
        # The inline pool runs a task at submit: the first fill holds
        # jobs 0-15, and the killer's task goes in once 0-3 are out.
        with pytest.raises(KeyboardInterrupt):
            run_batch(jobs[:17] + [killer] + jobs[18:], persist=path,
                      pool=_SyncPool())
        manifest = json.load(open(path + ".manifest.json"))
        assert manifest == {"total": 24, "done": 4, "complete": False}
        assert len(open(path, encoding="utf-8").readlines()) == 4
        resumed = run_batch(jobs, persist=path, resume=True,
                            pool=_SyncPool())
        assert [result_rows(r) for r in resumed] \
            == [result_rows(r) for r in run_batch(jobs)]
        manifest = json.load(open(path + ".manifest.json"))
        assert manifest == {"total": 24, "done": 24, "complete": True}

    def test_pool_path_persist_and_resume(self, tmp_path):
        jobs = small_jobs(5)
        path = str(tmp_path / "sweep.jsonl")
        run_batch(jobs[:2], persist=path)
        # Pool path with a partially-persisted file: cached results are
        # interleaved with pool submissions, order preserved.
        results = run_batch(jobs, persist=path, resume=True,
                            pool=_SyncPool())
        assert [result_rows(r) for r in results] \
            == [result_rows(r) for r in run_batch(jobs)]

    def test_process_pool_streaming_matches_serial(self):
        jobs = small_jobs(4)
        serial = run_batch(jobs, n_jobs=1)
        parallel = run_batch(jobs, n_jobs=2, window=2)
        assert [result_rows(r) for r in serial] \
            == [result_rows(r) for r in parallel]


class TestResolveJobs:
    def test_explicit_wins(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(1) == 1

    def test_zero_and_none_mean_all_cores(self, monkeypatch):
        monkeypatch.delenv(ENV_JOBS, raising=False)
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(None) >= 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ENV_JOBS, "7")
        assert resolve_jobs(0) == 7
        assert resolve_jobs(2) == 2  # explicit still wins

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)
