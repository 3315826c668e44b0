"""DecentralSimulation: contention model invariants and comparisons."""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch import SimJob, run_batch
from repro.decentral import (
    DECENTRAL_SCHEMES,
    DecentralSimulation,
    make_calculator,
    simulate_decentral,
)
from repro.simulation import SimulationError, simulate
from repro.verify import audit_sim
from repro.workloads import UniformWorkload

from tests.conftest import make_cluster


@pytest.fixture(scope="module")
def workload():
    return UniformWorkload(600, unit=20.0)


class TestSimulateDecentral:
    @pytest.mark.parametrize("scheme", DECENTRAL_SCHEMES)
    def test_audits_clean_and_results_serial(self, scheme, workload):
        cluster = make_cluster()
        res = simulate_decentral(scheme, workload, cluster,
                                 collect_results=True)
        audit_sim(res, workload.size, scheme=scheme).raise_if_failed()
        np.testing.assert_array_equal(
            res.results, workload.execute_serial()
        )

    def test_deterministic(self, workload):
        cluster = make_cluster()
        a = simulate_decentral("TSS", workload, cluster)
        b = simulate_decentral("TSS", workload, cluster)
        assert a.t_p == b.t_p
        assert [(c.worker, c.start, c.stop) for c in a.chunks] \
            == [(c.worker, c.start, c.stop) for c in b.chunks]

    def test_chunk_geometry_matches_calculator(self, workload):
        cluster = make_cluster()
        res = simulate_decentral("FSS", workload, cluster)
        calc = make_calculator("FSS", workload.size, cluster.size)
        spans = sorted((c.start, c.stop) for c in res.chunks)
        assert spans == [calc.interval(i) for i in range(calc.n_chunks)]

    def test_independent_of_master_dispatch_cost(self, workload):
        # The acceptance claim: no master in the path, so sweeping the
        # cluster's master_service must not move the decentral T_p at
        # all, while the master engine degrades.
        t_ps, master_t_ps = [], []
        for service in (1e-4, 1e-3, 1e-2):
            cluster = make_cluster(master_service=service)
            t_ps.append(simulate_decentral("TSS", workload, cluster).t_p)
            master_t_ps.append(simulate("TSS", workload, cluster).t_p)
        assert t_ps[0] == t_ps[1] == t_ps[2]
        assert master_t_ps[0] < master_t_ps[-1]

    def test_64_workers_cover_the_loop_on_both_engines(self):
        # Claim-heavy traffic at p = 64: 1024 CSS(8) chunks through
        # the master's queue and through the shared counter.
        wl = UniformWorkload(8192, unit=100.0)
        cluster = make_cluster(n_fast=32, n_slow=32)
        for run in (simulate, simulate_decentral):
            res = run("CSS(8)", wl, cluster)
            assert sum(c.size for c in res.chunks) == wl.size
            assert len({c.worker for c in res.chunks}) == 64

    def test_atomic_cost_creates_contention(self, workload):
        cluster = make_cluster()
        cheap = simulate_decentral("SS", workload, cluster,
                                   atomic_op_cost=1e-6)
        dear = simulate_decentral("SS", workload, cluster,
                                  atomic_op_cost=5e-3)
        assert dear.t_p > cheap.t_p

    def test_hierarchical_damps_contention(self):
        # Saturation regime: claim inter-arrival is below the atomic
        # cost, so the flat counter serializes the whole loop; leasing
        # 16-chunk blocks through cheap group-local counters removes
        # most global atomics from the critical path.
        wl = UniformWorkload(600, unit=5.0)
        cluster = make_cluster(n_fast=4, n_slow=4)
        flat = simulate_decentral("SS", wl, cluster, atomic_op_cost=5e-3)
        hier = simulate_decentral("SS", wl, cluster, atomic_op_cost=5e-3,
                                  local_op_cost=2e-4,
                                  group_size=2, lease=16)
        audit_sim(hier, wl.size).raise_if_failed()
        assert hier.t_p < flat.t_p

    def test_counter_ops_accounting(self, workload):
        cluster = make_cluster()
        sim = DecentralSimulation(
            make_calculator("CSS", workload.size, cluster.size, k=25),
            workload, cluster,
        )
        sim.run()
        global_ops, local_ops = sim.counter_ops
        n_chunks = make_calculator(
            "CSS", workload.size, cluster.size, k=25
        ).n_chunks
        assert global_ops == n_chunks + cluster.size
        assert local_ops == 0

    def test_hierarchical_counter_ops_split(self, workload):
        cluster = make_cluster(n_fast=4, n_slow=4)
        sim = DecentralSimulation(
            make_calculator("SS", workload.size, cluster.size),
            workload, cluster, group_size=4, lease=8,
        )
        sim.run()
        global_ops, local_ops = sim.counter_ops
        assert local_ops > global_ops

    def test_empty_loop(self):
        wl = UniformWorkload(0, unit=1.0)
        res = simulate_decentral("TSS", wl, make_cluster(),
                                 collect_results=True)
        assert res.t_p == 0.0
        assert res.chunks == []
        assert res.results.size == 0

    def test_distributed_scheme_rejected(self, workload):
        from repro.core.base import SchemeError

        with pytest.raises(SchemeError, match="no decentral form"):
            simulate_decentral("DTSS", workload, make_cluster())

    def test_mismatched_calculator_rejected(self, workload):
        calc = make_calculator("TSS", workload.size, 3)
        with pytest.raises(SimulationError, match="cluster has"):
            simulate_decentral(calc, workload, make_cluster())  # size 4

    def test_bad_group_size_rejected(self, workload):
        with pytest.raises(SimulationError, match="group_size"):
            simulate_decentral("TSS", workload, make_cluster(),
                               group_size=99)


class TestBatchIntegration:
    def test_decentral_engine_job(self, workload):
        cluster = make_cluster()
        job = SimJob(scheme="TSS", workload=workload, cluster=cluster,
                     engine="decentral",
                     params={"atomic_op_cost": 2e-5})
        [result] = run_batch([job])
        assert result.t_p == simulate_decentral(
            "TSS", workload, cluster, atomic_op_cost=2e-5
        ).t_p

    def test_engine_validated(self, workload):
        with pytest.raises(ValueError, match="decentral"):
            SimJob(scheme="TSS", workload=workload,
                   cluster=make_cluster(), engine="bogus")

    def test_jobs_fan_out_bit_identical(self, workload):
        cluster = make_cluster()
        jobs = [
            SimJob(scheme=s, workload=workload, cluster=cluster,
                   engine="decentral")
            for s in ("TSS", "GSS")
        ]
        serial_results = run_batch(jobs, n_jobs=1)
        pooled_results = run_batch(jobs, n_jobs=2)
        for a, b in zip(serial_results, pooled_results):
            assert a.t_p == b.t_p
