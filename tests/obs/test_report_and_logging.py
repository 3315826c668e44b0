"""trace_report rendering and the structured-logging layer."""

from __future__ import annotations

import hashlib
import logging

import pytest

from repro.chaos import FaultPlan
from repro.decentral import simulate_decentral
from repro.obs import (
    capture,
    configure_logging,
    critical_path,
    get_logger,
    stream_digest,
    trace_report,
    write_artifact,
)
from repro.obs.logutil import ENV_LOG_LEVEL, resolve_level
from repro.simulation import ClusterSpec, NodeSpec, simulate, simulate_tree
from repro.workloads import UniformWorkload


def _trace():
    wl = UniformWorkload(size=90, unit=1e-5)
    cluster = ClusterSpec(
        nodes=[NodeSpec(name=f"n{i}", speed=100.0) for i in range(3)]
    )
    with capture() as trace:
        simulate("GSS", wl, cluster, collector=trace)
    return trace.events


def test_trace_report_contains_table_census_and_digest():
    events = _trace()
    text = trace_report(events, title="my run")
    assert text.startswith("my run -- ")
    assert "worker" in text and "chunks" in text
    assert "events: " in text
    assert f"canonical stream sha256: {stream_digest(events)}" in text


def test_trace_report_empty():
    assert trace_report([], title="t") == "t: (empty trace)"


def test_critical_path_workers_count_lifecycle():
    events = _trace()
    workers = critical_path(events).workers
    assert [w.worker for w in workers] == [0, 1, 2]
    assert sum(w.iterations for w in workers) == 90
    assert all(w.busy > 0 for w in workers)
    assert all(len(w.dispatch) == w.chunks for w in workers)
    assert all(w.last_t >= w.finish_t for w in workers)


_RUNS = {
    "master": lambda wl, cl, chaos, trace: simulate(
        "TSS", wl, cl, chaos=chaos, collector=trace),
    "decentral": lambda wl, cl, chaos, trace: simulate_decentral(
        "TSS", wl, cl, chaos=chaos, collector=trace),
    "tree": lambda wl, cl, chaos, trace: simulate_tree(
        wl, cl, chaos=chaos, collector=trace),
}

#: sha256 of the rendered ``trace_report`` text, engine x fault plan.
_PINNED = {
    ("master", False):
        "bb4a09f9e795988e59772c4c90eeac012d4f3febb0df56a228a43816287e36f9",
    ("master", True):
        "5a942ab81fd0a211ed8fe2887bab9e324da4ff6c96fbf3d2a73441b163130022",
    ("decentral", False):
        "e0ccfd8c0046e18b0becdedf53d9755560ad97218be7822248775f48ad42f2e7",
    ("decentral", True):
        "36a11a8afe23b6c4461d5e1aeb54318c8ce45d9d65ea0573cc3b993991cc9dea",
    ("tree", False):
        "9af9405ed4e8f17c9d624ffe2aec6bebd037706f5792eade2fc6d50476ef087f",
    ("tree", True):
        "c0f2b8aefcbcf4bc638e4cc184210c1a87c3725a8c18c4fe584ce64ee3fe5748",
}


@pytest.mark.parametrize("engine,faulty", sorted(_PINNED))
def test_trace_report_text_is_pinned(engine, faulty):
    """The whole table, not substrings: a change in any column, the
    census, the distributions or the digest line moves the hash."""
    wl = UniformWorkload(size=240, unit=2e-4)
    cluster = ClusterSpec(nodes=[
        NodeSpec(name=f"n{i}", speed=100.0 + 40.0 * i) for i in range(3)
    ])
    chaos = None
    if faulty:
        t_p = simulate("TSS", wl, cluster).t_p
        chaos = FaultPlan.random(7, workers=3, horizon=1.0).scaled(
            0.5 * t_p
        )
    with capture() as trace:
        _RUNS[engine](wl, cluster, chaos, trace)
    text = trace_report(trace.events)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == _PINNED[engine, faulty], text


def test_loggers_live_under_the_repro_root():
    assert get_logger("repro.x").name == "repro.x"
    assert get_logger("other.mod").name == "repro.other.mod"


def test_resolve_level(monkeypatch):
    monkeypatch.delenv(ENV_LOG_LEVEL, raising=False)
    assert resolve_level() == logging.WARNING
    assert resolve_level("debug") == logging.DEBUG
    assert resolve_level(17) == 17
    monkeypatch.setenv(ENV_LOG_LEVEL, "info")
    assert resolve_level() == logging.INFO
    with pytest.raises(ValueError):
        resolve_level("shouty")


def test_configure_logging_is_idempotent(capsys):
    root = configure_logging("info")
    configure_logging("info")
    structured = [
        h for h in root.handlers
        if getattr(h, "_repro_structured", False)
    ]
    assert len(structured) == 1
    get_logger("repro.test").info("hello from the layer")
    captured = capsys.readouterr()
    assert captured.err.count("hello from the layer") == 1
    assert captured.out == ""


def test_log_level_threshold(capsys):
    configure_logging("warning")
    get_logger("repro.test").info("quiet")
    get_logger("repro.test").warning("loud")
    captured = capsys.readouterr()
    assert "quiet" not in captured.err
    assert "loud" in captured.err


def test_write_artifact_goes_to_stdout_verbatim(capsys):
    configure_logging("warning")
    write_artifact("TABLE 1\n  row")
    captured = capsys.readouterr()
    assert captured.out == "TABLE 1\n  row\n"
    assert "TABLE" not in captured.err
