"""Unit tests for wire messages and engine wiring helpers."""

from __future__ import annotations

import pytest

from repro.core.factoring import WeightedFactoringScheduler
from repro.runtime.messages import Assign, Request, Terminate
from repro.simulation import make_for_cluster

from tests.conftest import make_cluster


class TestMessages:
    def test_assign_validates_interval(self):
        Assign(0, 5)  # fine
        with pytest.raises(ValueError):
            Assign(5, 5)
        with pytest.raises(ValueError):
            Assign(5, 3)

    def test_request_defaults(self):
        req = Request(worker_id=2)
        assert req.acp is None
        assert req.result is None

    def test_terminate_is_plain(self):
        assert isinstance(Terminate(), Terminate)


class TestMakeForCluster:
    def test_wf_gets_cluster_weights(self):
        cluster = make_cluster(n_fast=1, n_slow=1)
        sched = make_for_cluster("WF", 100, cluster)
        assert isinstance(sched, WeightedFactoringScheduler)
        assert sched.weights == cluster.virtual_powers()

    def test_distributed_gets_acp_model(self):
        from repro.core.acp import AcpModel

        cluster = make_cluster()
        model = AcpModel(scale=100)
        sched = make_for_cluster("DTSS", 100, cluster, acp_model=model)
        assert sched.acp_model is model

    def test_simple_scheme_passthrough(self):
        cluster = make_cluster()
        sched = make_for_cluster("CSS(9)", 100, cluster)
        assert sched.k == 9

    def test_explicit_weights_not_overridden(self):
        cluster = make_cluster(n_fast=1, n_slow=1)
        sched = make_for_cluster("WF", 100, cluster,
                                 weights=[1.0, 1.0])
        assert sched.weights == [1.0, 1.0]
