"""Tests for sampling-based loop reordering (paper Sec. 2.1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import (
    GaussianPeakWorkload,
    ReorderedWorkload,
    UniformWorkload,
    WorkloadError,
    inverse_permutation,
    sampling_permutation,
)


class TestSamplingPermutation:
    def test_paper_order(self):
        # S_f = 4 over 8 iterations: first i % 4 == 0, then == 1, ...
        perm = sampling_permutation(8, 4)
        np.testing.assert_array_equal(perm, [0, 4, 1, 5, 2, 6, 3, 7])

    def test_identity_for_sf_1(self):
        np.testing.assert_array_equal(
            sampling_permutation(10, 1), np.arange(10)
        )

    def test_sf_larger_than_size(self):
        perm = sampling_permutation(3, 10)
        assert sorted(perm.tolist()) == [0, 1, 2]

    def test_invalid(self):
        with pytest.raises(WorkloadError):
            sampling_permutation(10, 0)
        with pytest.raises(WorkloadError):
            sampling_permutation(-1, 2)

    @given(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=100, deadline=None)
    def test_is_permutation(self, size, sf):
        perm = sampling_permutation(size, sf)
        assert sorted(perm.tolist()) == list(range(size))

    @given(
        st.integers(min_value=0, max_value=64),
        st.integers(min_value=-3, max_value=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_definition_for_sf_around_size(self, size, delta):
        # One sample per residue r < sf, in order (Sec. 2.1); samples
        # with r >= size are empty whatever sf is.
        sf = max(1, size + delta)
        expected = [
            i for r in range(sf) for i in range(r, size, sf)
        ]
        assert sampling_permutation(size, sf).tolist() == expected

    def test_huge_sf_is_linear_in_size(self):
        np.testing.assert_array_equal(
            sampling_permutation(5, 10 ** 12), np.arange(5)
        )

    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=100, deadline=None)
    def test_inverse_roundtrip(self, size, sf):
        perm = sampling_permutation(size, sf)
        inv = inverse_permutation(perm)
        np.testing.assert_array_equal(perm[inv], np.arange(size))
        np.testing.assert_array_equal(inv[perm], np.arange(size))


class TestReorderedWorkload:
    def test_costs_permuted(self):
        inner = GaussianPeakWorkload(40, amplitude=9.0)
        re = ReorderedWorkload(inner, sf=4)
        np.testing.assert_allclose(
            re.costs(), inner.costs()[re.perm]
        )

    def test_total_cost_preserved(self):
        inner = GaussianPeakWorkload(123, amplitude=5.0)
        re = ReorderedWorkload(inner, sf=7)
        assert re.total_cost() == pytest.approx(inner.total_cost())

    def test_reordering_smooths_contiguous_blocks(self):
        # The point of reordering: the cost of the worst contiguous
        # quarter drops toward the mean (Figure 1's uniformization).
        inner = GaussianPeakWorkload(400, amplitude=100.0, floor=1.0)
        re = ReorderedWorkload(inner, sf=4)

        def worst_quarter(wl):
            quarter = wl.size // 4
            return max(
                wl.chunk_cost(i, i + quarter)
                for i in range(0, wl.size - quarter + 1, quarter)
            )

        assert worst_quarter(re) < worst_quarter(inner)

    def test_execute_and_restore_roundtrip(self):
        inner = GaussianPeakWorkload(24, amplitude=3.0)
        re = ReorderedWorkload(inner, sf=3)
        rows = re.execute(0, 24)
        restored = re.restore(rows)
        np.testing.assert_allclose(
            restored.ravel(), inner.execute_serial()
        )

    def test_restore_rejects_bad_shape(self):
        re = ReorderedWorkload(UniformWorkload(10), sf=2)
        with pytest.raises(WorkloadError):
            re.restore(np.zeros((5, 1)))

    def test_mandelbrot_roundtrip(self, small_mandelbrot):
        re = ReorderedWorkload(small_mandelbrot, sf=4)
        rows = re.execute(0, re.size)
        restored = re.restore(rows)
        serial = small_mandelbrot.execute_serial().reshape(
            small_mandelbrot.width, small_mandelbrot.height
        )
        np.testing.assert_array_equal(restored, serial)

    def test_name_records_sf(self, small_mandelbrot):
        assert "Sf=4" in ReorderedWorkload(small_mandelbrot, 4).name
