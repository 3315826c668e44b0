"""Critical-path explainer tests (repro.obs.critpath).

The acceptance invariants: on a fault-free master-sim DES trace the
report's makespan equals the analytic fast path's t_p exactly, the
categories tile 100% of each worker's span, and the fast-path drift
is identically zero.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.chaos import FaultPlan
from repro.obs import (
    CATEGORIES,
    ObsEvent,
    critical_path,
    fastpath_drift,
)
from repro.service.jobs import job_from_spec

SPEC = {
    "scheme": "TSS",
    "workload": {"kind": "uniform", "size": 400, "unit": 1e-4},
    "cluster": {"workers": 4},
}


def _traced(spec=SPEC, **params):
    job = job_from_spec(dict(spec))
    if params:
        job = dataclasses.replace(
            job, params={**job.params, **params}
        )
    return job, job.run()


class TestSyntheticStreams:
    def test_empty_stream(self):
        rep = critical_path([])
        assert rep.makespan == 0.0
        assert rep.workers == []
        assert rep.chain == []

    def test_single_cycle_attribution(self):
        events = [
            ObsEvent("request", "sim.master", 0.0, worker=0),
            ObsEvent("assign", "sim.master", 1.0, worker=0,
                     start=0, stop=8),
            ObsEvent("compute", "sim.master", 2.0, worker=0,
                     start=0, stop=8, value=3.0),
            ObsEvent("result", "sim.master", 6.0, worker=0,
                     start=0, stop=8),
        ]
        rep = critical_path(events)
        assert rep.makespan == 6.0
        (w,) = rep.workers
        # request->assign network 1s, assign->compute network 1s,
        # compute 3s, compute-end->result network 1s
        assert w.categories["network"] == pytest.approx(3.0)
        assert w.categories["compute"] == pytest.approx(3.0)
        assert sum(w.categories.values()) == pytest.approx(w.span)
        assert [c.kind for c in rep.chain] == [
            "result", "compute", "assign", "request",
        ]

    def test_fault_recovery_window(self):
        events = [
            ObsEvent("request", "sim.master", 0.0, worker=0),
            ObsEvent("fault", "chaos", 1.0, worker=0, detail="death"),
            ObsEvent("restart", "sim.master", 5.0, worker=0),
            ObsEvent("assign", "sim.master", 6.0, worker=0,
                     start=0, stop=8),
            ObsEvent("compute", "sim.master", 7.0, worker=0,
                     start=0, stop=8, value=1.0),
            ObsEvent("result", "sim.master", 9.0, worker=0,
                     start=0, stop=8),
        ]
        rep = critical_path(events)
        (w,) = rep.workers
        assert w.categories["fault-recovery"] == pytest.approx(4.0)
        assert sum(w.categories.values()) == pytest.approx(w.span)

    def test_transparent_kinds_do_not_break_gaps(self):
        events = [
            ObsEvent("request", "sim.master", 0.0, worker=0),
            ObsEvent("heartbeat", "runtime.master", 0.5, worker=0),
            ObsEvent("acp-update", "sim.master", 0.7, worker=0, acp=4),
            ObsEvent("assign", "sim.master", 2.0, worker=0,
                     start=0, stop=8),
        ]
        rep = critical_path(events)
        (w,) = rep.workers
        # the whole [0, 2) gap is one network wait
        assert w.categories["network"] == pytest.approx(2.0)

    def test_dispatch_pairs_in_stream_order_across_sources(self):
        # A merged file: each source keeps its own time base, so a time
        # sort would pair the runtime's request with the sim's assign.
        events = [
            ObsEvent("request", "sim.master", 0.0, worker=0),
            ObsEvent("assign", "sim.master", 1.0, worker=0,
                     start=0, stop=8),
            ObsEvent("request", "runtime.master", 0.5, worker=0),
            ObsEvent("assign", "runtime.master", 0.75, worker=0,
                     start=0, stop=8),
        ]
        (w,) = critical_path(events).workers
        assert w.dispatch == [1.0, 0.25]

    def test_lifecycle_counts(self):
        events = [
            ObsEvent("request", "sim.master", 0.0, worker=0),
            ObsEvent("fault", "chaos", 1.0, worker=0, detail="death"),
            ObsEvent("restart", "sim.master", 5.0, worker=0),
            ObsEvent("heartbeat", "runtime.master", 9.5, worker=0),
            ObsEvent("compute", "sim.master", 7.0, worker=0,
                     start=0, stop=8, value=4.0),
        ]
        (w,) = critical_path(events).workers
        assert (w.faults, w.restarts) == (1, 1)
        assert w.last_t == 11.0  # the compute's end, past the heartbeat

    def test_unattributed_events_ignored(self):
        rep = critical_path([
            ObsEvent("fault", "chaos", 1.0, detail="stall", value=2.0),
        ])
        assert rep.workers == []


class TestMasterSimAcceptance:
    def test_makespan_equals_fastpath_t_p_exactly(self):
        job, res = _traced()
        rep = critical_path(res.obs_events)
        assert rep.makespan == res.t_p
        fast = dataclasses.replace(job, collect_events=False).run()
        assert rep.makespan == fast.t_p  # bit-exact, not approx

    def test_categories_tile_every_worker_span(self):
        _, res = _traced()
        rep = critical_path(res.obs_events)
        assert len(rep.workers) == 4
        for w in rep.workers:
            assert set(w.categories) <= set(CATEGORIES)
            assert math.isclose(
                sum(w.categories.values()), w.span, rel_tol=1e-12
            )
            assert w.chunks > 0 and w.iterations > 0

    def test_fastpath_drift_is_zero_fault_free(self):
        job, res = _traced()
        fast = dataclasses.replace(job, collect_events=False).run()
        drift = fastpath_drift(res.obs_events, fast.chunks)
        assert drift.ok
        assert drift.max_abs_drift == 0.0
        assert drift.matched == len(fast.chunks)
        assert drift.unmatched_observed == 0
        assert drift.unmatched_predicted == 0

    def test_drift_flags_perturbed_prediction(self):
        job, res = _traced()
        fast = dataclasses.replace(job, collect_events=False).run()
        perturbed = [
            dataclasses.replace(
                c, completed_at=c.completed_at + 0.001
            )
            for c in fast.chunks
        ]
        drift = fastpath_drift(res.obs_events, perturbed)
        assert not drift.ok
        assert drift.max_abs_drift == pytest.approx(0.001)

    def test_blocking_chain_reaches_back_to_first_request(self):
        _, res = _traced()
        rep = critical_path(res.obs_events)
        assert rep.chain[0].kind == "result"
        assert rep.chain[-1].kind == "request"
        # one worker's chain, cycles of compute<-assign<-request
        workers = {c.worker for c in rep.chain}
        assert len(workers) == 1
        assert rep.chain[0].t == rep.makespan

    def test_imbalance_metrics_populated(self):
        _, res = _traced()
        rep = critical_path(res.obs_events)
        assert rep.finish_max == rep.makespan
        assert 0.0 < rep.finish_mean <= rep.finish_max
        assert rep.finish_spread >= 0.0
        assert rep.imbalance >= 0.0
        assert rep.busy_sigma >= 0.0

    def test_report_serializes_and_summarizes(self):
        import json

        _, res = _traced()
        rep = critical_path(res.obs_events)
        doc = json.loads(json.dumps(rep.to_dict()))
        assert doc["makespan"] == rep.makespan
        assert len(doc["workers"]) == 4
        assert doc["chain"][0]["kind"] == "result"
        text = rep.summary()
        assert "makespan" in text and "worker 0" in text
        assert "blocking chain" in text


class TestChaosStream:
    def test_chaos_trace_still_tiles_and_reports(self):
        plan = FaultPlan.random(seed=7, workers=4, horizon=0.01)
        _, res = _traced(chaos=plan)
        rep = critical_path(res.obs_events)
        assert rep.makespan == res.t_p
        for w in rep.workers:
            assert math.isclose(
                sum(w.categories.values()), w.span, rel_tol=1e-9
            )
