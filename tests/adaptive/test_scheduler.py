"""Unit behaviour of the adaptive meta-scheduler and its parts."""

from __future__ import annotations

import pytest

from repro.adaptive import (
    AdaptiveScheduler,
    DiscountedUCB,
    StageStats,
    retune_kwargs,
)
from repro.adaptive import _balance_efficiency  # noqa: the proxy itself
from repro.core import make
from repro.core.base import SchemeError
from repro.verify import audit_adaptive
from repro.workloads import GaussianPeakWorkload, UniformWorkload

from .conftest import drain


class TestBandit:
    def test_explores_every_arm_once_in_seeded_order(self):
        bandit = DiscountedUCB(4, seed=3)
        played = []
        for _ in range(4):
            arm = bandit.select()
            played.append(arm)
            bandit.update(arm, 0.5)
        assert sorted(played) == [0, 1, 2, 3]
        assert played == DiscountedUCB(4, seed=3).order

    def test_deterministic_given_seed_and_rewards(self):
        def trajectory():
            bandit = DiscountedUCB(3, seed=11)
            arms = []
            rewards = [0.9, 0.2, 0.6, 0.8, 0.85, 0.4, 0.95, 0.7]
            for r in rewards:
                arm = bandit.select()
                arms.append(arm)
                bandit.update(arm, r)
            return arms

        assert trajectory() == trajectory()

    def test_discount_tracks_drift(self):
        # Arm 0 was great early, arm 1 becomes great late; with heavy
        # discounting the bandit must switch to arm 1.
        bandit = DiscountedUCB(2, seed=0, discount=0.5, explore=0.0)
        bandit.update(0, 1.0)
        bandit.update(1, 0.1)
        for _ in range(6):
            bandit.update(0, 0.1)
            bandit.update(1, 1.0)
        assert bandit.select() == 1

    def test_rejects_zero_arms(self):
        with pytest.raises(SchemeError):
            DiscountedUCB(0)


class TestRetune:
    STATS_FLAT = StageStats(chunks=8, iterations=400, mean_cost=1.0,
                            cv=0.0, reward=0.9)
    STATS_SPIKY = StageStats(chunks=8, iterations=400, mean_cost=1.0,
                             cv=1.0, reward=0.5)

    def test_css_refines_under_variance(self):
        flat = retune_kwargs("CSS", {}, self.STATS_FLAT, 400, 4)
        spiky = retune_kwargs("CSS", {}, self.STATS_SPIKY, 400, 4)
        assert spiky["k"] < flat["k"]

    def test_tss_first_shrinks_under_variance(self):
        flat = retune_kwargs("TSS", {}, self.STATS_FLAT, 400, 4)
        spiky = retune_kwargs("TSS", {}, self.STATS_SPIKY, 400, 4)
        assert spiky["first"] < flat["first"]

    def test_fss_alpha_grows_under_variance(self):
        assert retune_kwargs("FSS", {}, self.STATS_FLAT, 400, 4) == {}
        spiky = retune_kwargs("FSS", {}, self.STATS_SPIKY, 400, 4)
        assert spiky["alpha"] > 2.0

    def test_noop_when_inline_already_matches(self):
        want = retune_kwargs("CSS", {}, self.STATS_FLAT, 400, 4)
        again = retune_kwargs("CSS", want, self.STATS_FLAT, 400, 4)
        assert again == {}

    def test_unknown_scheme_untouched(self):
        assert retune_kwargs("SS", {}, self.STATS_SPIKY, 400, 4) == {}


class TestBalanceEfficiency:
    def test_bounds(self):
        eff = _balance_efficiency(
            [3.0, 1.0, 4.0, 1.0, 5.0], [1.0, 1.0], 0.1
        )
        assert 0.0 < eff <= 1.0

    def test_perfect_balance_is_one(self):
        assert _balance_efficiency([1.0] * 8, [1.0] * 4, 0.0) == 1.0

    def test_empty_is_one(self):
        assert _balance_efficiency([], [1.0] * 4, 0.0) == 1.0

    def test_coarse_front_scores_worse_on_hetero_cluster(self):
        """The risk-averse tie-break: a big front chunk lands on the
        slow PE, so coarse-front ladders score below fine ones."""
        speeds = [3.0, 3.0, 1.0, 1.0]
        coarse = [32.0, 16.0, 8.0, 4.0, 2.0, 1.0, 1.0]  # GSS-like
        fine = [8.0] * 8  # CSS-like
        assert _balance_efficiency(
            coarse, speeds, 0.0
        ) < _balance_efficiency(fine, speeds, 0.0)


class TestScheduler:
    def test_single_candidate_single_stage_matches_fixed(self):
        """adaptive:TSS@1 degenerates to plain TSS, chunk for chunk."""
        fixed = drain(make("TSS", 500, 4))
        meta = drain(make("adaptive:TSS@1", 500, 4))
        assert meta == fixed

    def test_tiles_exactly_once(self):
        sched = make("adaptive:TSS+GSS+CSS(32)@6", 1000, 4)
        ledger = drain(sched)
        spans = sorted((s, e) for _w, s, e in ledger)
        cursor = 0
        for start, stop in spans:
            assert start == cursor
            cursor = stop
        assert cursor == 1000

    def test_same_seed_bit_identical(self):
        a = make("adaptive:TSS+FSS+GSS@5", 800, 4, seed=3)
        b = make("adaptive:TSS+FSS+GSS@5", 800, 4, seed=3)
        assert drain(a) == drain(b)
        assert a.decisions == b.decisions

    def test_different_seed_changes_exploration_order(self):
        base = DiscountedUCB(4, seed=0).order
        assert any(
            DiscountedUCB(4, seed=s).order != base for s in range(1, 8)
        )

    def test_decision_log_and_drain(self):
        sched = make("adaptive:TSS+GSS@4", 600, 4)
        drain(sched)
        selects = sched.stage_decisions()
        assert [d.stage for d in selects] == list(
            range(1, len(selects) + 1)
        )
        # every decision was also surfaced through drain_decisions
        # during the run?  No -- nobody drained; they are all pending.
        fresh = sched.drain_decisions()
        assert fresh == sched.decisions
        assert sched.drain_decisions() == []

    def test_audit_passes_on_standalone_drain(self):
        sched = make("adaptive:TSS+GSS+CSS(16)@5", 700, 4)
        ledger = drain(sched)
        report = audit_adaptive(ledger, sched, total=700, workers=4)
        report.raise_if_failed()
        assert "stage-conformance" in report.checks

    def test_audit_catches_forged_decision_log(self):
        sched = make("adaptive:TSS+GSS@3", 400, 4)
        ledger = drain(sched)
        import dataclasses

        forged = [
            dataclasses.replace(d, base=d.base + 1)
            if d.stage == 2 and d.kind == "select" else d
            for d in sched.decisions
        ]
        report = audit_adaptive(ledger, forged, total=400, workers=4)
        assert not report.ok

    def test_cost_feedback_steers_toward_fine_chunks_on_peak(self):
        """On a peaked workload the posted rewards must differ across
        stages -- the feedback loop is live, not constant."""
        wl = GaussianPeakWorkload(900, amplitude=80.0)
        sched = make("adaptive:TSS+FSS+GSS@6", 900, 4)
        sched.bind_workload(wl)
        drain(sched)
        rewards = [
            d.reward for d in sched.stage_decisions()
            if d.reward is not None
        ]
        assert len(set(round(r, 6) for r in rewards)) > 1

    def test_bind_workload_size_mismatch(self):
        sched = AdaptiveScheduler(100, 2)
        with pytest.raises(SchemeError, match="100"):
            sched.bind_workload(UniformWorkload(50))

    def test_retune_decisions_follow_selects(self):
        wl = GaussianPeakWorkload(1200, amplitude=120.0)
        sched = make("adaptive:CSS(64)+GSS@6", 1200, 4)
        sched.bind_workload(wl)
        drain(sched)
        retunes = [d for d in sched.decisions if d.kind == "retune"]
        assert retunes, "tuner never fired on a high-variance workload"
        stages = {d.stage for d in sched.stage_decisions()}
        assert all(d.stage in stages for d in retunes)
