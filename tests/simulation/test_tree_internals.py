"""Unit tests for TreeS engine internals (_TreeWorker mechanics)."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tree import partner_order
from repro.simulation import ClusterSpec, NodeSpec, WorkerMetrics
from repro.simulation.tree_engine import TreeSimulation, _TreeWorker
from repro.workloads import UniformWorkload


def worker(ranges, index=0, workers=4):
    return _TreeWorker(
        index=index,
        node=NodeSpec(name=f"n{index}", speed=1.0),
        metrics=WorkerMetrics(name=f"n{index}"),
        ranges=[list(r) for r in ranges],
        partners=partner_order(index, workers),
    )


class TestPopBlock:
    def test_takes_from_front(self):
        w = worker([(0, 10)])
        assert w.pop_block(3) == (0, 3)
        assert w.pop_block(3) == (3, 6)
        assert w.remaining() == 4

    def test_grain_clipped_to_range(self):
        w = worker([(0, 2)])
        assert w.pop_block(10) == (0, 2)
        assert w.pop_block(10) is None

    def test_skips_empty_ranges(self):
        w = worker([(5, 5), (7, 9)])
        assert w.pop_block(1) == (7, 8)

    def test_crosses_range_boundary_in_two_pops(self):
        w = worker([(0, 2), (10, 12)])
        assert w.pop_block(4) == (0, 2)
        assert w.pop_block(4) == (10, 12)

    def test_empty_worker(self):
        assert worker([]).pop_block(1) is None


class TestStealHalf:
    def test_takes_back_half_of_single_range(self):
        w = worker([(0, 10)])
        assert w.steal_half(2) == (5, 10)
        assert w.remaining() == 5

    def test_victim_keeps_odd_extra(self):
        w = worker([(0, 7)])
        stolen = w.steal_half(2)
        assert stolen == (4, 7)
        assert w.remaining() == 4

    def test_refuses_below_min(self):
        w = worker([(0, 1)])
        assert w.steal_half(2) is None
        assert w.remaining() == 1

    def test_takes_whole_tail_range_when_small(self):
        # With two ranges, half the total may exceed the tail range:
        # the thief gets the whole tail (a single contiguous interval).
        w = worker([(0, 8), (20, 22)])
        stolen = w.steal_half(2)
        assert stolen == (20, 22)
        assert w.remaining() == 8

    def test_repeated_steals_converge(self):
        w = worker([(0, 100)])
        total_stolen = 0
        while True:
            stolen = w.steal_half(2)
            if stolen is None:
                break
            total_stolen += stolen[1] - stolen[0]
        assert total_stolen + w.remaining() == 100
        assert w.remaining() >= 1


class TestInlineTake:
    """``TreeSimulation.next_work`` takes the fixed-grain block inline;
    ``_TreeWorker.pop_block(grain)`` is its definition."""

    @staticmethod
    def _sim(grain=1):
        cluster = ClusterSpec(nodes=[
            NodeSpec(name="n0", speed=1.0), NodeSpec(name="n1", speed=1.0),
        ])
        return TreeSimulation(UniformWorkload(100), cluster, grain=grain)

    @given(
        ranges=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=60),
                st.integers(min_value=0, max_value=12),
            ).map(lambda lw: (lw[0], lw[0] + lw[1])),  # width 0 = empty
            max_size=6,
        ),
        grain=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=200, deadline=None)
    def test_inline_take_equals_pop_block(self, ranges, grain):
        sim = self._sim(grain=grain)
        taken = []
        dry = []
        sim._compute = lambda w, start, stop, *rest: taken.append(
            (start, stop)
        )
        sim._try_steal = dry.append
        w = sim.workers[0]
        w.ranges = [list(r) for r in ranges]
        w.next_flush = math.inf  # no flush: every call is a take
        ref = worker(ranges)
        while not dry:
            sim.next_work(w)
            block = ref.pop_block(grain)
            if block is None:
                assert dry == [w] and w.sweep_pos == 0
            else:
                assert taken.pop() == block
            assert w.ranges == ref.ranges
        assert not taken
        assert w.pending_items == sum(hi - lo for lo, hi in ranges)
