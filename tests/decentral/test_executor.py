"""run_decentral: the shared-counter runtime against serial and master."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.base import SchemeError
from repro.decentral import (
    DECENTRAL_SCHEMES,
    make_calculator,
    run_decentral,
)
from repro.runtime import WorkerSpec, run_parallel
from repro.verify import audit_run
from repro.workloads import SpinWorkload, UniformWorkload

ORDER_INVARIANT = ("SS", "CSS(16)", "GSS", "TSS")


@pytest.fixture(scope="module")
def workload():
    return UniformWorkload(400, unit=10.0)


@pytest.fixture(scope="module")
def serial(workload):
    return workload.execute_serial()


class TestRunDecentral:
    @pytest.mark.parametrize("scheme", DECENTRAL_SCHEMES)
    def test_bit_identical_to_serial(self, scheme, workload, serial):
        run = run_decentral(scheme, workload, 4)
        np.testing.assert_array_equal(run.results, serial)
        audit_run(run, workload.size, workers=4,
                  workload=workload).raise_if_failed()

    @pytest.mark.parametrize("scheme", ORDER_INVARIANT)
    def test_bit_identical_to_master_runtime(self, scheme, workload):
        # Order-invariant schemes: the decentral merged result equals
        # the master-based runtime's, bit for bit.
        master = run_parallel(scheme, workload, 3)
        dec = run_decentral(scheme, workload, 3)
        np.testing.assert_array_equal(dec.results, master.results)

    @pytest.mark.parametrize("scheme", ORDER_INVARIANT)
    def test_trace_conforms_to_scheme(self, scheme, workload):
        run = run_decentral(scheme, workload, 4)
        audit_run(run, workload.size, workers=4, scheme=scheme,
                  workload=workload).raise_if_failed()

    def test_chunks_cover_exactly_and_match_calc(self, workload):
        run = run_decentral("TSS", workload, 4)
        calc = make_calculator("TSS", workload.size, 4)
        spans = sorted((start, stop) for _w, start, stop in run.chunks)
        assert spans == [calc.interval(i) for i in range(calc.n_chunks)]
        assert run.n_chunks == calc.n_chunks

    def test_stats_account_every_chunk(self, workload):
        run = run_decentral("FSS", workload, 3)
        assert set(run.stats) <= set(range(3))
        assert sum(s.chunks for s in run.stats.values()) == run.n_chunks
        assert sum(s.iterations for s in run.stats.values()) \
            == workload.size

    def test_flat_mode_counts_global_ops(self, workload):
        run = run_decentral("CSS(25)", workload, 3)
        # one atomic per chunk plus one dry fetch per worker
        assert run.global_ops == run.n_chunks + 3
        assert run.local_ops == 0
        assert run.group_size is None

    def test_hierarchical_mode_trades_global_for_local(self, workload):
        flat = run_decentral("SS", workload, 4)
        hier = run_decentral("SS", workload, 4, group_size=2, lease=16)
        np.testing.assert_array_equal(hier.results, flat.results)
        audit_run(hier, workload.size, workers=4,
                  workload=workload).raise_if_failed()
        assert hier.group_size == 2
        assert hier.global_ops < flat.global_ops
        assert hier.local_ops > 0

    def test_hierarchical_single_group(self, workload, serial):
        run = run_decentral("GSS", workload, 3, group_size=3)
        np.testing.assert_array_equal(run.results, serial)

    def test_uneven_group_split(self, workload, serial):
        # 5 workers, groups of 2 -> last group has one member.
        run = run_decentral("TSS", workload, 5, group_size=2)
        np.testing.assert_array_equal(run.results, serial)
        audit_run(run, workload.size, workers=5,
                  workload=workload).raise_if_failed()

    def test_collect_results_false(self, workload):
        run = run_decentral("TSS", workload, 3, collect_results=False)
        assert run.results is None
        audit_run(run, workload.size, workers=3).raise_if_failed()

    def test_worker_slowdown_respected(self):
        # A compute-bound workload: per-iteration cost (~1.5ms) sits
        # well above timer/allocator noise, unlike UniformWorkload
        # whose execute() is a numpy slice measured in microseconds.
        wl = SpinWorkload(60, spins=60)
        specs = [WorkerSpec(slowdown=6.0), WorkerSpec()]
        run = run_decentral("CSS(5)", wl, 2, specs=specs)
        np.testing.assert_array_equal(run.results, wl.execute_serial())
        fast = run.stats[1]
        slow = run.stats[0]
        if slow.chunks and fast.chunks:
            # Nominal ratio is 6x; 2x leaves headroom for a loaded box.
            assert (slow.t_comp / max(slow.iterations, 1)
                    > 2.0 * fast.t_comp
                    / max(fast.iterations, 1))

    def test_empty_loop(self):
        wl = UniformWorkload(0, unit=1.0)
        run = run_decentral("TSS", wl, 3)
        assert run.n_chunks == 0
        assert run.results.size == 0

    def test_single_worker(self, workload, serial):
        run = run_decentral("GSS", workload, 1)
        np.testing.assert_array_equal(run.results, serial)

    def test_distributed_scheme_rejected(self, workload):
        with pytest.raises(SchemeError, match="no decentral form"):
            run_decentral("DTSS", workload, 3)

    def test_bad_worker_count_rejected(self, workload):
        with pytest.raises(ValueError):
            run_decentral("TSS", workload, 0)

    def test_bad_group_size_rejected(self, workload):
        with pytest.raises(ValueError):
            run_decentral("TSS", workload, 3, group_size=4)
