"""Unit tests for the trace invariant auditor (repro.verify)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.simulation import ChunkRecord, SimResult, WorkerMetrics
from repro.verify import (
    AuditError,
    AuditReport,
    audit_run,
    audit_sim,
    audit_subscription,
    replay_cut_points,
)


def make_result(spans, total=None, scheme="TSS", t_p=None,
                results=None, workers=2):
    """Hand-build a SimResult whose trace is ``spans``: a list of
    ``(worker, start, stop, assigned_at, completed_at)``."""
    metrics = [WorkerMetrics(name=f"n{i}") for i in range(workers)]
    records = []
    for worker, start, stop, a, c in spans:
        records.append(ChunkRecord(worker=worker, start=start,
                                   stop=stop, assigned_at=a,
                                   completed_at=c))
        metrics[worker].chunks += 1
        metrics[worker].iterations += stop - start
    last = max((c for *_x, c in spans), default=0.0)
    return SimResult(
        scheme=scheme, workers=metrics,
        t_p=t_p if t_p is not None else last,
        chunks=records, results=results,
    )


def tamper(res, index, **changes):
    """Records are frozen: swap an edited copy into a copied list."""
    records = list(res.chunks)
    records[index] = dataclasses.replace(records[index], **changes)
    res.chunks = records


class TestCoverage:
    def test_clean_tiling_passes(self):
        res = make_result([(0, 0, 5, 0.0, 1.0), (1, 5, 10, 0.0, 1.2)])
        report = audit_sim(res, 10)
        assert report.ok
        assert "coverage" in report.checks
        report.raise_if_failed()  # no-op on success

    def test_gap_detected(self):
        res = make_result([(0, 0, 4, 0.0, 1.0), (1, 6, 10, 0.0, 1.0)])
        report = audit_sim(res, 10)
        assert not report.ok
        assert any("gap" in v for v in report.violations)
        with pytest.raises(AuditError, match="gap"):
            report.raise_if_failed()

    def test_overlap_detected(self):
        res = make_result([(0, 0, 6, 0.0, 1.0), (1, 4, 10, 0.0, 1.0)])
        report = audit_sim(res, 10)
        assert any("overlap" in v for v in report.violations)

    def test_truncated_tail_detected(self):
        res = make_result([(0, 0, 6, 0.0, 1.0)])
        report = audit_sim(res, 10)
        assert any("never executed" in v for v in report.violations)

    def test_out_of_range_chunk_detected(self):
        res = make_result([(0, 0, 12, 0.0, 1.0)])
        report = audit_sim(res, 10)
        assert any("outside" in v for v in report.violations)

    def test_total_inferred_from_trace(self):
        res = make_result([(0, 0, 7, 0.0, 1.0), (1, 7, 9, 0.5, 1.1)])
        assert audit_sim(res).ok


class TestEventTimes:
    def test_non_causal_times_detected(self):
        res = make_result([(0, 0, 10, 2.0, 1.0)])
        report = audit_sim(res, 10, )
        assert any("non-causal" in v for v in report.violations)

    def test_per_worker_time_overlap_detected(self):
        res = make_result([
            (0, 0, 5, 0.0, 2.0),
            (0, 5, 10, 1.0, 3.0),  # assigned before previous finished
        ])
        report = audit_sim(res, 10)
        assert any("overlap in time" in v for v in report.violations)

    def test_t_p_before_last_completion_detected(self):
        res = make_result([(0, 0, 10, 0.0, 5.0)], t_p=1.0)
        report = audit_sim(res, 10)
        assert any("T_p" in v for v in report.violations)


class TestMetricsAgreement:
    def test_counter_drift_detected(self):
        res = make_result([(0, 0, 10, 0.0, 1.0)])
        res.workers[0].iterations -= 3
        report = audit_sim(res, 10)
        assert any("metrics disagree" in v for v in report.violations)

    def test_unknown_worker_detected(self):
        res = make_result([(0, 0, 10, 0.0, 1.0)])
        tamper(res, 0, worker=5)
        report = audit_sim(res, 10)
        assert not report.ok


class TestAcpBounds:
    def test_acp_bounds(self):
        res = make_result([(0, 0, 5, 0.0, 1.0), (1, 5, 10, 0.0, 1.0)])
        tamper(res, 0, acp=7)
        tamper(res, 1, acp=0)  # below the availability floor
        report = audit_sim(res, 10)
        assert "acp-bounds" in report.checks
        assert any("ACP" in v for v in report.violations)

    def test_max_acp_ceiling(self):
        res = make_result([(0, 0, 10, 0.0, 1.0)])
        tamper(res, 0, acp=99)
        assert not audit_sim(res, 10, max_acp=50).ok
        tamper(res, 0, acp=49)
        assert audit_sim(res, 10, max_acp=50).ok


class TestResultLength:
    def test_short_results_detected(self):
        res = make_result([(0, 0, 10, 0.0, 1.0)],
                          results=np.zeros(7))
        report = audit_sim(res, 10)
        assert any("7 values" in v for v in report.violations)


class TestConformance:
    def test_replay_matches_scheme(self):
        from repro.core import drain, make

        chunks = list(drain(make("TSS", 100, 3)))
        # conformance replays with len(result.workers) == 3 workers
        res = make_result(
            [(c.worker_id % 3, c.start, c.stop, float(i), float(i) + 0.5)
             for i, c in enumerate(chunks)],
            workers=3,
        )
        report = audit_sim(res, 100, scheme="TSS")
        assert "policy-conformance" in report.checks
        assert report.ok

    def test_moved_cut_point_detected(self):
        from repro.core import drain, make

        chunks = list(drain(make("CSS", 100, 2, k=10)))
        spans = [[0, c.start, c.stop, float(i), float(i) + 0.5]
                 for i, c in enumerate(chunks)]
        spans[3][2] += 2  # shift one boundary...
        spans[4][1] += 2  # ...keeping coverage exact
        res = make_result([tuple(s) for s in spans], workers=1)
        report = audit_sim(res, 100, scheme="CSS", k=10)
        assert any("diverge" in v for v in report.violations)

    def test_order_dependent_scheme_skipped(self):
        # FSS descends a per-PE stage ladder: no reference replay.
        assert replay_cut_points("DTSS", 100, 3) is None
        fwd = replay_cut_points("FSS", 100, 3)
        skew = replay_cut_points("FSS", 100, 3, order=[0, 1, 0, 2])
        assert fwd != skew

    def test_misflagged_order_invariance_is_caught(self):
        """The flag is the rule: a scheme that claims order invariance
        falsely is checked, and its trace diverges from the replay."""
        from repro.core import FactoringScheduler

        class LyingFSS(FactoringScheduler):
            order_invariant = True

        # Worker 0 asks twice as often: FSS's per-PE stage ladder
        # gives it a different cut sequence than round-robin service.
        step = LyingFSS(100, 3).stepper(lambda _wid: (1.0, 1))
        spans = []
        for i, wid in enumerate([0, 1, 0, 2] * 100):
            chunk = step(wid, None)
            if chunk is None:
                break
            spans.append((wid, chunk[0], chunk[1], float(i), i + 0.5))
        res = make_result(spans, workers=3)
        assert audit_sim(res, 100).ok
        report = audit_sim(res, 100, scheme=LyingFSS(100, 3))
        assert "policy-conformance" in report.checks
        assert any("diverge" in v for v in report.violations)

    def test_replay_cut_points_invariant_for_simple_chain(self):
        for scheme, kw in [("SS", {}), ("CSS", {"k": 7}), ("GSS", {}),
                           ("TSS", {})]:
            fwd = replay_cut_points(scheme, 120, 4, **kw)
            rev = replay_cut_points(scheme, 120, 4,
                                    order=[3, 2, 1, 0], **kw)
            skew = replay_cut_points(scheme, 120, 4,
                                     order=[0, 1, 0, 2, 0, 3], **kw)
            assert fwd == rev == skew
            assert 0 in fwd and 120 in fwd


class TestAuditChunksAndRun:
    def test_audit_chunks(self):
        # a bare (worker, start, stop) chunk log is a runtime trace too
        audit_run([(0, 0, 4), (1, 4, 9)], 9).raise_if_failed()
        assert not audit_run([(0, 0, 4)], 9).ok

    def test_audit_run_against_workload(self):
        from repro.runtime import RunResult
        from repro.workloads import UniformWorkload

        wl = UniformWorkload(20)
        good = RunResult(scheme="TSS", elapsed=0.1,
                         results=wl.execute_serial(), stats={},
                         chunks=[(0, 0, 12), (1, 12, 20)])
        audit_run(good, workload=wl).raise_if_failed()
        bad = RunResult(scheme="TSS", elapsed=0.1,
                        results=wl.execute_serial()[:-1], stats={},
                        chunks=[(0, 0, 12), (1, 12, 20)])
        report = audit_run(bad, workload=wl)
        assert any("differ from the serial" in v
                   for v in report.violations)

    def test_audit_run_length_only_without_workload(self):
        from repro.runtime import RunResult

        run = RunResult(scheme="SS", elapsed=0.1,
                        results=np.zeros(5), stats={},
                        chunks=[(0, 0, 5)])
        assert audit_run(run, total=5).ok
        assert not audit_run(run, total=6).ok


class TestReport:
    def test_summary_mentions_checks_and_violations(self):
        report = AuditReport(subject="x", checks=["coverage"],
                             violations=["gap: oops"])
        text = report.summary()
        assert "VIOLATION" in text and "gap: oops" in text
        ok = AuditReport(subject="y", checks=["coverage"])
        assert "OK" in ok.summary()


class TestAuditSubscription:
    """Synthetic stream frames against the live-telemetry contract."""

    @staticmethod
    def _ev(t: float, kind: str = "compute") -> dict:
        return {"kind": kind, "source": "service", "t": t}

    def _frames(self):
        return [
            {"watch": "events", "n": 1, "drops": 0,
             "tenant": "a", "events": [self._ev(1.0)]},
            {"watch": "events", "n": 2, "drops": 0,
             "tenant": "a", "events": [self._ev(2.0)]},
            {"watch": "end", "n": 3, "drops": 0},
        ]

    def test_clean_stream_passes(self):
        report = audit_subscription(self._frames())
        assert report.ok
        assert "sequence" in report.checks
        assert "drop-accounting" in report.checks

    def test_sequence_gap_flagged(self):
        frames = self._frames()
        frames[1]["n"] = 5
        report = audit_subscription(frames)
        assert any("gap or reorder" in v for v in report.violations)

    def test_drops_must_be_cumulative(self):
        frames = self._frames()
        frames[0]["drops"] = 4
        report = audit_subscription(frames)
        assert any("went backwards" in v for v in report.violations)

    def test_end_frame_must_be_final(self):
        frames = self._frames()
        frames.append({"watch": "events", "n": 4, "drops": 0,
                       "tenant": "a", "events": []})
        report = audit_subscription(frames)
        assert any("not the final frame" in v
                   for v in report.violations)

    def test_malformed_frame_flagged(self):
        report = audit_subscription([{"watch": "events"}])
        assert not report.ok

    def test_fidelity_subset_of_trace(self):
        trace = [self._ev(1.0), self._ev(2.0), self._ev(3.0)]
        assert audit_subscription(self._frames(), trace=trace).ok
        rogue = self._frames()
        rogue[1]["events"] = [self._ev(9.0)]
        report = audit_subscription(rogue, trace=trace)
        assert any("not in" in v for v in report.violations)

    def test_completeness_requires_every_event(self):
        trace = [self._ev(1.0), self._ev(2.0), self._ev(3.0)]
        report = audit_subscription(
            self._frames(), trace=trace, complete=True
        )
        assert any("never reached" in v for v in report.violations)
        full = audit_subscription(
            self._frames(), trace=[self._ev(1.0), self._ev(2.0)],
            complete=True,
        )
        assert full.ok

    def test_complete_with_drops_is_contradictory(self):
        frames = self._frames()
        for frame in frames:
            frame["drops"] = 2
        report = audit_subscription(
            frames, trace=[self._ev(1.0), self._ev(2.0)],
            complete=True,
        )
        assert any("lossy" in v for v in report.violations)
