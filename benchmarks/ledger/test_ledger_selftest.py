"""Self-test of the benchmark ledger (not collected by tier-1).

    python -m pytest benchmarks/ledger -q

Every workload runs in quick mode (a tenth of the operations) through
``subprocess.run`` with a timeout, traced and untraced.  Checked: the
result line's shape, that metric and workload names equal
``BENCHMARK.json`` exactly, that exact counts repeat for one seed and
move with the seed, that a golden file with one digest flipped fails
the run, and that no process carrying the run marker survives a
normal end, a SIGTERM or a SIGKILL of the harness.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import time
import uuid

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import guard  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
          encoding="utf-8") as _fh:
    BENCH = json.load(_fh)

WORKLOADS = [w["name"] for w in BENCH["workloads"]]
E2E = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
LAYERS = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
EXACT = sorted(n for n, u in LAYERS.items() if u in ("count", "B"))


def _command(workload, seed, trace, *extra):
    return [
        *BENCH["command"], "--workload", workload, "--seed", str(seed),
        "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace),
        "--quick", *extra,
    ]


def _env(marker):
    return dict(os.environ, **{guard.MARKER_ENV: marker})


def _run(workload, seed, trace, *extra):
    marker = uuid.uuid4().hex
    proc = subprocess.run(
        _command(workload, seed, trace, *extra), cwd=ROOT,
        env=_env(marker), capture_output=True, text=True, timeout=170,
    )
    assert guard.marked_processes(marker) == [], "process left running"
    return proc


def _result(proc):
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    return json.loads(lines[-1])


_CACHE: dict = {}


def _traced(workload, seed):
    """One traced quick run per (workload, seed), shared by tests."""
    if (workload, seed) not in _CACHE:
        proc = _run(workload, seed, 1)
        assert proc.returncode == 0, proc.stderr
        _CACHE[workload, seed] = _result(proc)
    return _CACHE[workload, seed]


def _check_shape(result, units):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int)
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == list(units)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == units[name]
        assert math.isfinite(metric["value"]), name


def test_benchmark_json_names_the_harness_workloads():
    import inputs

    assert tuple(WORKLOADS) == inputs.WORKLOADS
    assert "setup_s" in E2E
    assert BENCH["paths"] == ["benchmarks/ledger"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_the_end_to_end_metrics(workload):
    proc = _run(workload, 0, 0)
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    _check_shape(result, E2E)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_and_writes_spans(workload):
    _check_shape(_traced(workload, 0), LAYERS)
    spans_path = os.path.join(HERE, "_run", "spans.jsonl")
    with open(spans_path, "r", encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    assert spans
    assert set(spans[0]) == {"id", "name", "start", "end", "parent",
                             "job"}
    assert all(s["end"] >= s["start"] for s in spans)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_per_seed_and_move_with_it(workload):
    first = _traced(workload, 0)["metrics"]
    proc = _run(workload, 0, 1)
    assert proc.returncode == 0, proc.stderr
    again = _result(proc)["metrics"]
    other = _traced(workload, 1)["metrics"]
    counts = [first[name]["value"] for name in EXACT]
    assert counts == [again[name]["value"] for name in EXACT]
    assert counts != [other[name]["value"] for name in EXACT]


def test_layer_numbers_reproduce_the_sizing():
    fast = _traced("sweep_fast", 0)["metrics"]
    observed = _traced("sweep_observed", 0)["metrics"]
    assert fast["fastpath.eligible_ratio"]["value"] == 1.0
    assert observed["fastpath.eligible_ratio"]["value"] == 0.0
    assert 4.0 < fast["engine.fast_speedup"]["value"] < 20.0
    assert 55e3 < fast["batch.pickle_bytes_per_job"]["value"] < 70e3
    assert fast["pool.ledger_entries_per_job"]["value"] == 3.0


@pytest.mark.parametrize("workload", ["sweep_fast", "service_small"])
def test_flipped_golden_digest_fails_the_run(workload, tmp_path):
    with open(os.path.join(HERE, "golden_seed0.json"), "r",
              encoding="utf-8") as fh:
        golden = json.load(fh)
    tag = sorted(golden[workload])[0]
    digest = golden[workload][tag]
    golden[workload][tag] = ("0" if digest[0] != "0" else "1") \
        + digest[1:]
    flipped = tmp_path / "golden.json"
    flipped.write_text(json.dumps(golden), encoding="utf-8")
    proc = _run(workload, 0, 0, "--golden", str(flipped))
    assert proc.returncode != 0
    assert _result(proc)["correct"] is False


@pytest.mark.parametrize("workload", ["service_heavy", "sweep_fanout"])
@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL])
def test_no_process_survives_a_killed_harness(workload, sig):
    marker = uuid.uuid4().hex
    # Popen only to be able to signal it mid-run; always waited for.
    proc = subprocess.Popen(
        _command(workload, 0, 0), cwd=ROOT, env=_env(marker),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        # Mid-run: the harness has forked (a marked child exists).
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline and proc.poll() is None:
            if guard.marked_processes(marker, exclude=proc.pid):
                break
            time.sleep(0.02)
        assert proc.poll() is None, "run ended before it could be hit"
        assert guard.marked_processes(marker, exclude=proc.pid)
        proc.send_signal(sig)
        out, _err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode != 0
    assert not out.strip(), "a killed run must not print a result"
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline \
            and guard.marked_processes(marker):
        time.sleep(0.05)
    assert guard.marked_processes(marker) == []
