"""Batch-layer event capture and the trace-report CLI artifact."""

from __future__ import annotations

import json

import pytest

from repro.batch import SimJob, run_batch
from repro.experiments.runner import main
from repro.obs import read_jsonl, stream_digest, validate_event
from repro.simulation import ClusterSpec, NodeSpec
from repro.workloads import UniformWorkload

WL = UniformWorkload(size=100, unit=1e-5)


def _cluster():
    return ClusterSpec(
        nodes=[NodeSpec(name=f"n{i}", speed=100.0) for i in range(2)]
    )


def test_collect_events_marks_the_key_and_attaches_the_trace():
    base = SimJob("TSS", WL, _cluster())
    traced = SimJob("TSS", WL, _cluster(), collect_events=True)
    assert traced.key != base.key
    assert "|events" in traced.describe()

    plain, with_trace = run_batch([base, traced])
    assert plain.obs_events is None
    assert with_trace.obs_events
    for ev in with_trace.obs_events:
        validate_event(ev)
    # the trace does not perturb the simulated outcome
    assert plain.t_p == with_trace.t_p


def test_collect_events_survives_the_process_pool():
    jobs = [
        SimJob("TSS", WL, _cluster(), collect_events=True),
        SimJob("GSS", WL, _cluster(), engine="decentral",
               collect_events=True),
    ]
    inline = run_batch(jobs, n_jobs=1)
    pooled = run_batch(jobs, n_jobs=2)
    for a, b in zip(inline, pooled):
        assert a.obs_events and b.obs_events
        assert stream_digest(a.obs_events) == stream_digest(b.obs_events)


def test_trace_report_cli_demo_scenario(tmp_path, capsys):
    jsonl = tmp_path / "trace.jsonl"
    chrome = tmp_path / "trace-chrome.json"
    rc = main([
        "trace-report",
        "--trace-out", str(jsonl),
        "--chrome-out", str(chrome),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "IDENTICAL" in out
    assert "sim.master: OK" in out
    assert "runtime.decentral: OK" in out
    # both exports parse
    events = read_jsonl(jsonl)
    assert events
    for ev in events:
        validate_event(ev)
    doc = json.loads(chrome.read_text())
    assert doc["traceEvents"]


def test_trace_report_cli_audits_an_existing_file(tmp_path, capsys):
    jsonl = tmp_path / "trace.jsonl"
    assert main(["trace-report", "--trace-out", str(jsonl)]) == 0
    capsys.readouterr()
    rc = main(["trace-report", "--trace", str(jsonl)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "OK" in out and "VIOLATION" not in out


def test_trace_report_cli_flags_a_corrupt_ledger(tmp_path, capsys):
    jsonl = tmp_path / "bad.jsonl"
    jsonl.write_text(
        '{"kind": "result", "source": "sim.master", "t": 0.0, '
        '"worker": 0, "start": 0, "stop": 4}\n'
        '{"kind": "result", "source": "sim.master", "t": 1.0, '
        '"worker": 1, "start": 2, "stop": 8}\n'
    )
    rc = main(["trace-report", "--trace", str(jsonl)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "overlap" in out


def test_log_level_flag_reaches_the_logging_layer(tmp_path, capsys):
    jsonl = tmp_path / "trace.jsonl"
    rc = main([
        "trace-report", "--trace-out", str(jsonl),
        "--log-level", "info",
    ])
    captured = capsys.readouterr()
    assert rc == 0
    # chaos injections from the demo scenario surface as INFO records
    # on stderr, never polluting the stdout artifact
    assert "repro.chaos" in captured.err
    assert "repro.chaos" not in captured.out
