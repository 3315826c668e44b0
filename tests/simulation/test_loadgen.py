"""Tests for run-queue load traces and exact work integration."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import (
    ConstantLoad,
    RandomLoad,
    SimulationError,
    StepLoad,
    integrate_compute,
)


class TestConstantLoad:
    def test_values(self):
        trace = ConstantLoad(3)
        assert trace.q_at(0.0) == 3
        assert trace.q_at(1e9) == 3
        assert trace.next_change(5.0) is None

    def test_validation(self):
        with pytest.raises(SimulationError):
            ConstantLoad(0)


class TestStepLoad:
    def test_breakpoints(self):
        trace = StepLoad([(10.0, 3), (20.0, 1)])
        assert trace.q_at(0.0) == 1
        assert trace.q_at(10.0) == 3
        assert trace.q_at(15.0) == 3
        assert trace.q_at(20.0) == 1

    def test_next_change(self):
        trace = StepLoad([(10.0, 3), (20.0, 1)])
        assert trace.next_change(0.0) == 10.0
        assert trace.next_change(10.0) == 20.0
        assert trace.next_change(25.0) is None

    def test_validation(self):
        with pytest.raises(SimulationError):
            StepLoad([(10.0, 3), (5.0, 1)])
        with pytest.raises(SimulationError):
            StepLoad([(10.0, 0)])


class TestRandomLoad:
    def test_deterministic(self):
        a = RandomLoad(seed=3)
        b = RandomLoad(seed=3)
        ts = [0.0, 5.0, 17.0, 100.0, 999.0]
        assert [a.q_at(t) for t in ts] == [b.q_at(t) for t in ts]

    def test_alternates(self):
        trace = RandomLoad(seed=1, arrival_rate=0.5, mean_duration=2.0)
        qs = {trace.q_at(t * 0.5) for t in range(400)}
        assert qs == {1, 3}

    def test_next_change_is_future(self):
        trace = RandomLoad(seed=2)
        t = 0.0
        for _ in range(20):
            nxt = trace.next_change(t)
            assert nxt > t
            t = nxt


class TestIntegrateCompute:
    def test_dedicated_is_linear(self):
        finish = integrate_compute(5.0, 100.0, 10.0, ConstantLoad(1))
        assert finish == pytest.approx(15.0)

    def test_constant_load_scales(self):
        finish = integrate_compute(0.0, 100.0, 10.0, ConstantLoad(2))
        assert finish == pytest.approx(20.0)

    def test_step_change_mid_computation(self):
        # 10 units/s dedicated; load doubles (halves the rate) at t=5.
        trace = StepLoad([(5.0, 2)])
        finish = integrate_compute(0.0, 100.0, 10.0, trace)
        # 50 ops by t=5 at rate 10; remaining 50 at rate 5 -> 10 more s.
        assert finish == pytest.approx(15.0)

    def test_zero_work(self):
        assert integrate_compute(7.0, 0.0, 10.0, ConstantLoad(1)) == 7.0

    def test_validation(self):
        with pytest.raises(SimulationError):
            integrate_compute(0.0, -1.0, 10.0, ConstantLoad(1))
        with pytest.raises(SimulationError):
            integrate_compute(0.0, 1.0, 0.0, ConstantLoad(1))

    @given(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        st.floats(min_value=0.1, max_value=1e3, allow_nan=False),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=100, deadline=None)
    def test_bounds_under_any_random_trace(self, start, work, speed, seed):
        """Finish time is bracketed by the dedicated and worst-Q rates."""
        trace = RandomLoad(seed=seed, q_busy=3)
        finish = integrate_compute(start, work, speed, trace)
        assert finish >= start + work / speed - 1e-6
        assert finish <= start + 3 * work / speed + 1e-6

    @given(
        st.floats(min_value=1.0, max_value=1e4, allow_nan=False),
        st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_additivity(self, work, seed):
        """Integrating in two halves equals integrating at once."""
        trace = RandomLoad(seed=seed)
        whole = integrate_compute(0.0, work, 10.0, trace)
        half = integrate_compute(0.0, work / 2, 10.0, trace)
        rest = integrate_compute(half, work / 2, 10.0, trace)
        assert rest == pytest.approx(whole, rel=1e-9, abs=1e-6)
