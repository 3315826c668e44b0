"""Tests for repro.batch: process-parallel experiment fan-out."""

from __future__ import annotations

import collections
import dataclasses
import json
import os
import pickle
import signal
import time
from concurrent.futures import Future, ProcessPoolExecutor

import numpy as np
import orjson
import pytest

from repro import batch as batch_mod
from repro.batch import (
    SimJob,
    _Persister,
    resolve_jobs,
    run_batch,
    stream_batch,
)
from repro.chaos import FaultPlan
from repro.core import names
from repro.experiments import paper_cluster, paper_workload
from repro.simulation import ClusterSpec, NodeSpec
from repro.simulation import metrics as metrics_mod
from repro.simulation.metrics import LazyChunkList, SimResult, WorkerMetrics
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

    def test_pickle_rebuilds_what_it_leaves_out(self, batch_workload):
        """The prefix sums, the sampling permutation and the Mandelbrot
        axes stay out of the pickle and come back bit for bit."""
        batch_workload.costs()
        inner = batch_workload.inner
        assert not {"_prefix", "perm"} & set(batch_workload.__getstate__())
        assert not {"_prefix", "_xs", "_ys"} & set(inner.__getstate__())
        clone = pickle.loads(pickle.dumps(batch_workload))
        pairs = [
            (batch_workload._prefix, clone._prefix),
            (batch_workload.perm, clone.perm),
            (inner._xs, clone.inner._xs),
            (inner._ys, clone.inner._ys),
        ]
        # The wrapper resolved the inner vector without installing it.
        assert inner._costs is None and clone.inner._costs is None
        for built, rebuilt in pairs:
            assert rebuilt.dtype == built.dtype
            assert rebuilt.tobytes() == built.tobytes()
        assert not clone._prefix.flags.writeable
        assert clone.prefix_list() == batch_workload.prefix_list()

    @pytest.mark.parametrize("engine", ["master", "decentral", "tree"])
    def test_job_runs_identically_after_a_pickle(self, batch_workload,
                                                 batch_cluster, engine):
        batch_workload.costs()
        job = SimJob("TreeS" if engine == "tree" else "GSS",
                     batch_workload, batch_cluster, engine=engine,
                     params=dict(collect_results=True)
                     if engine == "master" else {})
        clone = pickle.loads(pickle.dumps(job))
        result, again = job.run(), clone.run()
        assert again.to_json_bytes(True) == result.to_json_bytes(True)
        assert again.chunks == result.chunks
        if engine == "master":
            assert again.results.tobytes() == result.results.tobytes()

    def test_key_is_computed_once_per_job(self, tmp_path, monkeypatch):
        """``record`` and the resume lookups read one memo."""
        described = collections.Counter()
        describe = SimJob.describe
        monkeypatch.setattr(
            SimJob, "describe",
            lambda self: described.update([id(self)]) or describe(self),
        )
        jobs = small_jobs(4)
        path = str(tmp_path / "sweep.jsonl")
        run_batch(jobs[:2], persist=path)
        run_batch(jobs, persist=path, resume=True)
        run_batch(jobs, persist=path, resume=True, pool=_SyncPool())
        assert described == {id(job): 1 for job in jobs}

    def test_replace_computes_a_fresh_key(self):
        job = small_jobs(1)[0]
        key = job.key
        edited = dataclasses.replace(job, tag="other")
        assert "key" not in vars(edited)
        assert edited.key != key
        assert edited.key == SimJob(job.scheme, job.workload, job.cluster,
                                    tag="other").key
        assert dataclasses.replace(job).key == key

    def test_key_memo_stays_out_of_the_pickle(self):
        job = small_jobs(1)[0]
        # Resolved costs are part of the workload's pickle; everything
        # the key derives from them (the cost digest) is not.
        job.workload.costs()
        before = pickle.dumps(job)
        key = job.key
        assert vars(job)["key"] == key
        assert pickle.dumps(job) == before
        assert pickle.loads(before).key == key


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
    """Executor stub that runs inline and counts tasks and their jobs.

    Each task and its results cross a pickle, as they cross a process
    pool's pipe: results arrive with their chunks as text."""

    _max_workers = 2

    def __init__(self):
        self.submitted = 0  # tasks
        self.jobs = 0

    def submit(self, fn, jobs):
        self.submitted += 1
        self.jobs += len(jobs)
        fut = Future()
        results = fn(pickle.loads(pickle.dumps(jobs)))
        fut.set_result(pickle.loads(pickle.dumps(results)))
        return fut


@pytest.fixture(scope="module")
def process_pool():
    with ProcessPoolExecutor(max_workers=2) as pool:
        yield pool


def spy(monkeypatch, calls, owner, name, args=None):
    """Count the calls of ``owner.name`` in ``calls`` (and keep their
    arguments in ``args``)."""
    real = getattr(owner, name)

    def counted(*a, **kw):
        calls[name] += 1
        if args is not None:
            args.append(a)
        return real(*a, **kw)

    monkeypatch.setattr(owner, name, counted)


@dataclasses.dataclass(frozen=True)
class _KillJob(SimJob):
    """A job that SIGTERMs its own process when run (sequential path)."""

    def run(self):
        os.kill(os.getpid(), signal.SIGTERM)
        time.sleep(5.0)  # interrupted by the translated signal
        raise AssertionError("SIGTERM was not delivered")


@dataclasses.dataclass(frozen=True)
class _NonFiniteJob(SimJob):
    """A job whose result holds what orjson would write as ``null``: an
    infinite time in a row (tag ``row-inf``: the rows cross a pool as
    rows) or a NaN worker cell (``cell-nan``: the rows cross as text,
    and the line falls back to ``json``)."""

    def run(self, collector=None):
        result = SimJob(self.scheme, self.workload, self.cluster).run()
        if self.tag == "row-inf":
            rows = list(result.chunks.rows())
            rows[-1] = (*rows[-1][:4], float("inf"), *rows[-1][5:])
            result.chunks = LazyChunkList(rows)
        else:
            result.workers[0].t_wait = float("nan")
        return result


def identity_jobs(case) -> list[SimJob]:
    """Three or four jobs of one engine (or fault, or non-finite kind)."""
    wl = GaussianPeakWorkload(120, amplitude=4.0)
    cluster = ClusterSpec(nodes=[
        NodeSpec(name=f"n{i}", speed=50.0 + 10.0 * i) for i in range(3)
    ])
    if case == "non-finite":
        return [_NonFiniteJob("FSS", wl, cluster, tag=tag)
                for tag in ("row-inf", "cell-nan", "row-inf")]
    if case == "tree":
        return [SimJob("TreeS", wl, cluster, engine="tree",
                       params=dict(weighted=weighted, grain=grain))
                for weighted, grain in ((True, 8), (False, 8), (True, 4))]
    params = {}
    if case == "chaos":
        params["chaos"] = FaultPlan.random(3, workers=3, horizon=2.0)
        assert params["chaos"].events
    engine = "decentral" if case == "decentral" else "master"
    return [SimJob(scheme, wl, cluster, engine=engine, params=params)
            for scheme in ("FSS", "TSS", "GSS", "SS")]


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
        ``result.to_dict()``, then that record's head spliced with
        the result's ``to_json_bytes()`` text; it now holds its rows.  One
        file may hold all three, and each resumes bit-identically."""
        jobs = small_jobs(6)
        results = run_batch(jobs)

        def head(i):
            return {
                "key": jobs[i].key, "index": i,
                "scheme": jobs[i].scheme, "engine": jobs[i].engine,
                "tag": jobs[i].tag,
            }

        def dumped(i):
            return json.dumps({**head(i), "result": results[i].to_dict()})

        def spliced(i):
            return '%s, "result": %s}' % (
                json.dumps(head(i))[:-1],
                results[i].to_json_bytes().decode())

        path = str(tmp_path / "sweep.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for line in (dumped(0), dumped(1), spliced(2), spliced(3)):
                fh.write(line + "\n")
        runs = []
        original = SimJob.run
        monkeypatch.setattr(
            SimJob, "run",
            lambda self: runs.append(self.tag) or original(self),
        )
        for expected_runs in (["j4", "j5"], []):
            runs.clear()
            resumed = run_batch(jobs, persist=path, resume=True)
            assert runs == expected_runs
            assert [result_rows(r) for r in resumed] \
                == [result_rows(r) for r in results]
            assert resumed == results
        lines = open(path, encoding="utf-8").read().splitlines()
        assert lines[:4] == [dumped(0), dumped(1), spliced(2), spliced(3)]
        assert lines[4:] == [
            orjson.dumps({**head(i), "result": results[i].row_dict()})
            .decode()
            for i in (4, 5)
        ]

    @pytest.mark.parametrize("engine, widths", [
        ("master", {7}), ("decentral", {6}), ("tree", {7}),
        ("chaos", {7}),
    ])
    def test_a_line_holds_rows_and_resumes_bit_identically(
        self, tmp_path, monkeypatch, engine, widths
    ):
        wl = GaussianPeakWorkload(120, amplitude=4.0)
        cluster = ClusterSpec(nodes=[
            NodeSpec(name=f"n{i}", speed=50.0 + 10.0 * i)
            for i in range(3)
        ])
        params = {}
        if engine == "chaos":
            params["chaos"] = FaultPlan.random(3, workers=3, horizon=2.0)
            assert params["chaos"].events
        job = SimJob("TreeS" if engine == "tree" else "FSS", wl, cluster,
                     engine="master" if engine == "chaos" else engine,
                     params=params)
        path = str(tmp_path / "sweep.jsonl")
        [result] = run_batch([job], persist=path)
        [line] = open(path, "rb").read().splitlines()
        rec = orjson.loads(line)
        assert list(rec) == ["key", "index", "scheme", "engine", "tag",
                             "result"]
        rows = rec["result"]["chunks"]
        assert {len(row) for row in rows} == widths
        assert rows == [list(row) for row in result.chunks.rows()]
        assert line == orjson.dumps(rec)
        monkeypatch.setattr(
            SimJob, "run",
            lambda self: (_ for _ in ()).throw(
                AssertionError("resume re-ran a persisted job")),
        )
        [back] = run_batch([job], persist=path, resume=True)
        assert back == result
        assert back.to_json_bytes() == result.to_json_bytes()
        assert back.to_dict() == result.to_dict()
        assert pickle.dumps(back.to_dict()) \
            == pickle.dumps(result.to_dict())

    @pytest.mark.parametrize("rows, t_wait, token", [
        ([(0, 0, 5, 0.0, float("inf"), 0, None)], 0.5, b"Infinity"),
        ([(0, 0, 5, float("-inf"), 1.0, 0)], 0.5, b"-Infinity"),
        ([(0, 0, 5, float("nan"), 1.0, 1, 2)], 0.5, b"NaN"),
        ([(0, 0, 5, 0.0, 1.0, 0)], float("nan"), b"NaN"),
        ([(0, 0, 5, 0.0, 1.0, 0)], float("inf"), b"Infinity"),
    ], ids=["row-inf", "row-neg-inf", "row-nan", "cell-nan", "cell-inf"])
    def test_non_finite_values_round_trip_exactly(self, tmp_path, rows,
                                                  t_wait, token):
        job = small_jobs(1)[0]
        result = SimResult(
            scheme="S", t_p=1.0, chunks=LazyChunkList(rows),
            workers=[WorkerMetrics(name="n0", t_wait=t_wait)],
        )
        path = str(tmp_path / "sweep.jsonl")
        sink = _Persister(path, resume=False)
        sink.record(job, 0, result)
        sink.close()
        line = open(path, "rb").read()
        assert token in line and line.endswith(b"}\n")
        back = _Persister(path, resume=True).loaded[job.key]
        # ``json.dumps`` writes NaN as NaN, so NaN compares equal here.
        assert json.dumps(back.to_dict()) == json.dumps(result.to_dict())
        assert back.to_json_bytes() == result.to_json_bytes()

    def test_record_writes_one_json_text_and_no_dict_form(
        self, tmp_path, monkeypatch
    ):
        """A persisted line is one encode, and the per-chunk dicts of
        ``to_dict`` / ``to_json_bytes`` are never built on the way to
        disk: one ``json_bytes`` call over the row form for a result
        built in-process; for one whose rows crossed a pool as text, no
        ``json_bytes`` call but one ``exact_bytes`` over the head
        alone, the text spliced after it (the stub pool's pickle of the
        rows is the other ``exact_bytes`` call per job)."""
        calls = collections.Counter()
        spy(monkeypatch, calls, SimResult, "to_dict")
        spy(monkeypatch, calls, SimResult, "to_json_bytes")
        spy(monkeypatch, calls, metrics_mod, "json_bytes")
        spy(monkeypatch, calls, metrics_mod, "exact_bytes")
        jobs = small_jobs(4)
        path = str(tmp_path / "sweep.jsonl")
        run_batch(jobs, persist=path)
        assert calls == {"json_bytes": len(jobs)}
        run_batch(jobs, persist=path, pool=_SyncPool())
        assert calls == {"json_bytes": len(jobs),
                         "exact_bytes": 2 * len(jobs)}
        lines = open(path, "rb").read().splitlines()
        assert len(lines) == 2 * len(jobs)
        assert lines[:len(jobs)] == lines[len(jobs):]

    def test_recording_rows_that_arrived_as_text_decodes_nothing(
        self, tmp_path, monkeypatch
    ):
        """The parent writes a pool result's line without decoding,
        re-encoding or re-checking a row."""
        job = small_jobs(1)[0]
        here = job.run()
        result = pickle.loads(pickle.dumps(here))
        assert result.chunks.text() is not None
        calls = collections.Counter()
        encoded = []
        spy(monkeypatch, calls, LazyChunkList, "rows")
        spy(monkeypatch, calls, SimResult, "floats")
        spy(monkeypatch, calls, metrics_mod, "json_bytes")
        spy(monkeypatch, calls, metrics_mod, "exact_bytes")
        spy(monkeypatch, calls, orjson, "dumps", encoded)
        spy(monkeypatch, calls, orjson, "loads")
        path = str(tmp_path / "sweep.jsonl")
        sink = _Persister(path, resume=False)
        sink.record(job, 0, result)
        sink.close()
        # One encode, of the head and the result's fields only.
        assert calls == {"exact_bytes": 1, "dumps": 1}
        [(doc,)] = encoded
        assert list(doc["result"]) == ["scheme", "t_p", "rederivations",
                                       "events", "workers"]
        assert result.chunks._rows is None
        monkeypatch.undo()
        inline = str(tmp_path / "inline.jsonl")
        sink = _Persister(inline, resume=False)
        sink.record(job, 0, here)
        sink.close()
        assert open(path, "rb").read() == open(inline, "rb").read()

    @pytest.mark.parametrize("case", [
        "master", "decentral", "tree", "chaos", "non-finite",
    ])
    def test_pool_lines_are_the_in_process_lines(
        self, tmp_path, monkeypatch, process_pool, case
    ):
        """A file written through a pool -- the pickling stub or two
        real worker processes -- is byte for byte the in-process one,
        and resumes to the same results."""
        jobs = identity_jobs(case)
        files, yielded = {}, {}
        for name, pool in (("inline", None), ("stub", _SyncPool()),
                           ("process", process_pool)):
            path = str(tmp_path / f"{name}.jsonl")
            yielded[name] = run_batch(jobs, persist=path, pool=pool)
            files[name] = open(path, "rb").read()
        assert files["stub"] == files["inline"]
        assert files["process"] == files["inline"]
        rows = [json.loads(line)["result"]["chunks"]
                for line in files["inline"].splitlines()]
        if case in ("master", "decentral"):
            width = 7 if case == "master" else 6
            assert {len(r) for chunks in rows for r in chunks} == {width}
        # The transport was the text wherever it is exact.
        texts = [r.chunks.text() is not None for r in yielded["stub"]]
        assert texts == [job.tag != "row-inf" for job in jobs]
        monkeypatch.setattr(
            SimJob, "run",
            lambda self: (_ for _ in ()).throw(
                AssertionError("resume re-ran a persisted job")),
        )
        resumed = run_batch(jobs, persist=str(tmp_path / "process.jsonl"),
                            resume=True)
        # ``json.dumps`` writes NaN as NaN: the comparison holds there.
        for expected in yielded.values():
            assert [json.dumps(r.to_dict()) for r in resumed] \
                == [json.dumps(r.to_dict()) for r in expected]
        if case != "non-finite":
            assert resumed == yielded["inline"] == yielded["process"]

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

    @pytest.mark.parametrize("bad", [
        "no-result", "null-result", "row-of-5", "row-of-8", "row-not-list",
    ])
    def test_resume_skips_a_keyed_record_that_does_not_rebuild(
        self, tmp_path, caplog, bad
    ):
        """A record with its key but a missing or malformed result is
        treated like a torn line: one warning, the job re-runs, and its
        whole record is appended."""
        import logging

        jobs = small_jobs(3)
        path = str(tmp_path / "sweep.jsonl")
        run_batch(jobs[:2], persist=path)
        rec = {"key": jobs[2].key, "index": 2,
               "result": jobs[2].run().row_dict()}
        chunks = rec["result"]["chunks"]
        if bad == "no-result":
            del rec["result"]
        elif bad == "null-result":
            rec["result"] = None
        elif bad == "row-of-5":
            chunks[1] = chunks[1][:5]
        elif bad == "row-of-8":
            chunks[-1] = (*chunks[-1], None, 0)[:8]
        else:
            chunks[0] = 7
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(rec) + "\n")
        with caplog.at_level(logging.WARNING, logger="repro.batch"):
            resumed = run_batch(jobs, persist=path, resume=True)
        assert any("skipped 1" in r.message for r in caplog.records)
        assert [result_rows(r) for r in resumed] \
            == [result_rows(r) for r in run_batch(jobs)]
        lines = open(path, encoding="utf-8").read().splitlines()
        assert len(lines) == 4
        assert json.loads(lines[-1])["key"] == jobs[2].key

    def test_resume_gives_a_repeated_job_its_own_result(self, tmp_path):
        job = small_jobs(1)[0]
        path = str(tmp_path / "sweep.jsonl")
        run_batch([job], persist=path)
        first, second = run_batch([job, job], persist=path, resume=True)
        assert first == second and first is not second
        assert first.chunks is not second.chunks

    def test_manifest_write_is_all_or_nothing(self, tmp_path,
                                              monkeypatch):
        """A manifest write that dies partway leaves the previous
        manifest whole, not a truncated file."""
        jobs = small_jobs(2)
        path = str(tmp_path / "sweep.jsonl")
        run_batch(jobs, persist=path)
        manifest = path + ".manifest.json"
        before = open(manifest, "rb").read()

        def dies_partway(obj, fh, **kwargs):
            fh.write('{"total": ')
            raise OSError("killed mid-write")

        monkeypatch.setattr(json, "dump", dies_partway)
        with pytest.raises(OSError, match="mid-write"):
            batch_mod._write_manifest(path, 9, 3, False)
        assert open(manifest, "rb").read() == before
        assert json.loads(before) == {
            "total": 2, "done": 2, "complete": True,
        }

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

    def test_zero_and_none_mean_all_cores(self):
        cores = max(1, os.cpu_count() or 1)
        assert resolve_jobs(0) == cores
        assert resolve_jobs(None) == cores

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)
