"""FaultPlan construction, validation, serialization, generation."""

from __future__ import annotations

import json

import pytest

from repro.chaos import (
    ChaosError,
    FaultPlan,
    LoadSpike,
    MasterStall,
    MessageDelay,
    MessageLoss,
    WorkerDeath,
    WorkerRestart,
)


class TestValidation:
    def test_empty_plan_is_fine(self):
        plan = FaultPlan()
        assert plan.events == ()
        assert plan.max_worker == -1
        assert plan.horizon == 0.0
        assert plan.summary() == "(empty fault plan)"

    def test_restart_without_death_rejected(self):
        with pytest.raises(ChaosError, match="alternate"):
            FaultPlan(events=(WorkerRestart(worker=1, at=0.5),))

    def test_double_death_rejected(self):
        with pytest.raises(ChaosError, match="alternate"):
            FaultPlan(events=(
                WorkerDeath(worker=1, at=0.1),
                WorkerDeath(worker=1, at=0.2),
            ))

    def test_death_restart_death_ok(self):
        plan = FaultPlan(events=(
            WorkerDeath(worker=2, at=0.1),
            WorkerRestart(worker=2, at=0.2),
            WorkerDeath(worker=2, at=0.3),
        ))
        assert len(plan.deaths) == 2
        assert len(plan.restarts) == 1

    def test_restart_must_follow_death_in_time(self):
        with pytest.raises(ChaosError, match="increase|alternate"):
            FaultPlan(events=(
                WorkerDeath(worker=1, at=0.5),
                WorkerRestart(worker=1, at=0.5),
            ))

    def test_negative_time_rejected(self):
        with pytest.raises(ChaosError):
            WorkerDeath(worker=0, at=-1.0)

    def test_bad_event_params_rejected(self):
        with pytest.raises(ChaosError):
            MessageDelay(worker=0, at=0.0, delay=0.0)
        with pytest.raises(ChaosError):
            MasterStall(at=0.0, duration=-1.0)
        with pytest.raises(ChaosError):
            LoadSpike(worker=0, at=0.0, duration=1.0, extra_q=0)
        with pytest.raises(ChaosError):
            FaultPlan(retry_after=0.0)
        with pytest.raises(ChaosError):
            FaultPlan(events=("not-an-event",))


class TestViews:
    def _plan(self) -> FaultPlan:
        return FaultPlan(events=(
            WorkerDeath(worker=1, at=0.4),
            WorkerRestart(worker=1, at=0.8),
            MessageDelay(worker=0, at=0.1, delay=0.05),
            MessageLoss(worker=0, at=0.3),
            MasterStall(at=0.2, duration=0.1),
            LoadSpike(worker=2, at=0.5, duration=0.4, extra_q=3),
        ), retry_after=0.02)

    def test_kind_views(self):
        plan = self._plan()
        assert [e.kind for e in plan.deaths] == ["death"]
        assert [e.kind for e in plan.restarts] == ["restart"]
        assert [e.kind for e in plan.stalls] == ["stall"]
        assert [e.kind for e in plan.spikes] == ["spike"]

    def test_message_faults_merge_delay_and_loss(self):
        plan = self._plan()
        faults = plan.message_faults(0)
        assert faults == [(0.1, "delay", 0.05), (0.3, "loss", 0.02)]
        assert plan.message_faults(1) == []

    def test_max_worker_and_horizon(self):
        plan = self._plan()
        assert plan.max_worker == 2
        # spike runs until 0.5 + 0.4
        assert plan.horizon == pytest.approx(0.9)

    def test_scaled(self):
        plan = self._plan().scaled(10.0)
        assert plan.deaths[0].at == pytest.approx(4.0)
        assert plan.stalls[0].duration == pytest.approx(1.0)
        assert plan.retry_after == pytest.approx(0.2)
        assert plan.message_faults(0)[0][2] == pytest.approx(0.5)
        with pytest.raises(ChaosError):
            plan.scaled(0.0)


class TestSerialization:
    def test_json_round_trip(self):
        plan = FaultPlan.random(seed=7, workers=4, horizon=3.0)
        doc = json.loads(json.dumps(plan.to_json()))
        clone = FaultPlan.from_json(doc)
        assert clone == plan

    def test_from_json_rejects_unknown_kind(self):
        with pytest.raises(ChaosError, match="unknown fault kind"):
            FaultPlan.from_json({"events": [{"kind": "meteor"}]})


class TestRandom:
    def test_same_seed_same_plan(self):
        a = FaultPlan.random(seed=42, workers=5)
        b = FaultPlan.random(seed=42, workers=5)
        assert a == b
        assert a.seed == 42

    def test_different_seeds_differ(self):
        assert FaultPlan.random(seed=1, workers=5) \
            != FaultPlan.random(seed=2, workers=5)

    def test_worker_zero_never_dies(self):
        for seed in range(30):
            plan = FaultPlan.random(seed=seed, workers=4, deaths=3)
            assert all(d.worker != 0 for d in plan.deaths)

    def test_targets_stay_in_range(self):
        for seed in range(20):
            plan = FaultPlan.random(seed=seed, workers=3)
            assert plan.max_worker < 3

    #: ``(kind, worker, at)`` per event of three plans at non-unit
    #: horizons (``deaths=2, restart_probability=1.0``), generated
    #: before the restart bound was clamped to the horizon: a draw that
    #: succeeded then is bit-identical now.
    PINNED = {
        (3, 1.0): [
            ("death", 2, 0.12059648168029939),
            ("death", 3, 0.22760787994707476),
            ("loss", 0, 0.39122819049566204),
            ("stall", None, 0.5167401826213637),
            ("restart", 2, 0.5423968274228279),
            ("spike", 2, 0.5902702298337282),
            ("restart", 3, 0.6776830871610949),
            ("delay", 1, 0.7345771514092145),
        ],
        (11, 1.5): [
            ("spike", 3, 0.1655616874403464),
            ("death", 1, 0.2414168451496379),
            ("restart", 1, 0.33097657547601295),
            ("loss", 0, 0.5534896855946865),
            ("death", 2, 0.6366875952451293),
            ("restart", 2, 0.6624264830443735),
            ("stall", None, 0.7670850327048939),
            ("delay", 2, 1.4224926799376627),
        ],
        (7, 5.0): [
            ("stall", None, 1.274347938270623),
            ("loss", 3, 1.3921280605038666),
            ("spike", 1, 2.018193035831813),
            ("death", 1, 3.1588213384194757),
            ("death", 3, 3.525825420235982),
            ("restart", 1, 3.7121809308390126),
            ("delay", 3, 3.9853471437602312),
            ("restart", 3, 4.736638250377283),
        ],
    }

    @pytest.mark.parametrize("seed,horizon", sorted(PINNED))
    def test_pinned_plans_did_not_move(self, seed, horizon):
        plan = FaultPlan.random(seed, workers=4, horizon=horizon,
                                deaths=2, restart_probability=1.0)
        assert [
            (ev.kind, getattr(ev, "worker", None), ev.at)
            for ev in plan.events
        ] == self.PINNED[seed, horizon]

    def test_horizon_below_the_restart_gap(self):
        """``horizon < 5e-3``: the restart's one-millisecond gap is
        clamped to the horizon, it does not raise."""
        for seed in range(50):
            plan = FaultPlan.random(seed, workers=4, horizon=1e-3,
                                    restart_probability=1.0)
            (death,), (back,) = plan.deaths, plan.restarts
            assert death.at <= back.at <= 1e-3

    def test_invalid_args(self):
        with pytest.raises(ChaosError):
            FaultPlan.random(seed=0, workers=0)
        with pytest.raises(ChaosError):
            FaultPlan.random(seed=0, workers=2, horizon=0.0)
