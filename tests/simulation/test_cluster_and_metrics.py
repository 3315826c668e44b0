"""Tests for cluster specs and metrics containers."""

from __future__ import annotations

import pytest

from repro.simulation import (
    ClusterSpec,
    ConstantLoad,
    NodeSpec,
    SimulationError,
    WorkerMetrics,
)
from repro.obs.metrics import imbalance


class TestNodeSpec:
    def test_transfer_time(self):
        node = NodeSpec(name="n", speed=1.0, latency=0.01,
                        bandwidth=1000.0)
        assert node.transfer_time(500.0) == pytest.approx(0.51)
        assert node.transfer_time(0.0) == pytest.approx(0.01)

    def test_validation(self):
        with pytest.raises(SimulationError):
            NodeSpec(name="n", speed=0.0)
        with pytest.raises(SimulationError):
            NodeSpec(name="n", speed=1.0, latency=-1.0)
        with pytest.raises(SimulationError):
            NodeSpec(name="n", speed=1.0, bandwidth=0.0)
        node = NodeSpec(name="n", speed=1.0)
        with pytest.raises(SimulationError):
            node.transfer_time(-1.0)


class TestClusterSpec:
    def test_virtual_powers_derived_from_speeds(self):
        cluster = ClusterSpec(nodes=[
            NodeSpec(name="a", speed=300.0),
            NodeSpec(name="b", speed=100.0),
        ])
        assert cluster.virtual_powers() == [3.0, 1.0]

    def test_explicit_virtual_power_kept(self):
        cluster = ClusterSpec(nodes=[
            NodeSpec(name="a", speed=300.0, virtual_power=2.5),
            NodeSpec(name="b", speed=100.0),
        ])
        assert cluster.virtual_powers() == [2.5, 1.0]

    def test_a_reused_node_keeps_no_stale_virtual_power(self):
        """The default V is filled on a copy: a node that sat in a
        faster cluster is the slowest of its next one."""
        a = NodeSpec(name="a", speed=100.0)
        b = NodeSpec(name="b", speed=300.0)
        ClusterSpec([a, b])
        assert ClusterSpec([b]).virtual_powers() == [1.0]
        assert b.virtual_power is None

    def test_duplicate_names_rejected(self):
        with pytest.raises(SimulationError):
            ClusterSpec(nodes=[
                NodeSpec(name="x", speed=1.0),
                NodeSpec(name="x", speed=2.0),
            ])

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            ClusterSpec(nodes=[])

    def test_subset_recomputes_powers(self):
        cluster = ClusterSpec(nodes=[
            NodeSpec(name="a", speed=900.0),
            NodeSpec(name="b", speed=300.0),
            NodeSpec(name="c", speed=100.0),
        ])
        sub = cluster.subset([0, 1])
        assert sub.size == 2
        assert sub.virtual_powers() == [3.0, 1.0]

    def test_subset_empty_rejected(self):
        cluster = ClusterSpec(nodes=[NodeSpec(name="a", speed=1.0)])
        with pytest.raises(SimulationError):
            cluster.subset([])

    def test_load_default_dedicated(self):
        node = NodeSpec(name="n", speed=1.0)
        assert isinstance(node.load, ConstantLoad)
        assert node.load.q == 1


class TestMetrics:
    def test_row_format(self):
        m = WorkerMetrics(name="n", t_com=1.23, t_wait=4.56,
                          t_comp=7.89)
        assert m.row() == "1.2/4.6/7.9"

    def test_busy_sum(self):
        m = WorkerMetrics(name="n", t_com=1.0, t_wait=2.0, t_comp=3.0)
        assert m.busy == 6.0

    def test_imbalance(self):
        assert imbalance([1.0, 1.0, 1.0]) == 0.0
        assert imbalance([0.0, 2.0]) == pytest.approx(2.0)
        assert imbalance([]) == 0.0
        assert imbalance([0.0, 0.0]) == 0.0
