"""Tests for the Mandelbrot column workload (paper Sec. 2.1)."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import (
    MandelbrotWorkload,
    WorkloadError,
    escape_counts,
    render_ascii,
)
from repro.workloads.mandelbrot import PAPER_DOMAIN


def scalar_escape(c: complex, max_iter: int) -> int:
    """Per-point reference: the step at which ``|z| > 2`` (or NaN)."""
    z = 0j
    for step in range(1, max_iter + 1):
        z = z * z + c
        if not z.real * z.real + z.imag * z.imag <= 4.0:
            return step
    return max_iter


_R2 = math.sqrt(2.0)
#: On the escape circle |c| = 2, on the real axis, and not finite.
_EDGE_POINTS = [
    2 + 0j, -2 + 0j, 2j, -2j, complex(_R2, _R2), complex(-_R2, -_R2),
    -0.75 + 0j, 0.25 + 0j, 0.25 + 1e-9j, -1.401155 + 0j, 0j,
    complex(math.nan, 0.0), complex(0.0, math.nan),
    complex(math.inf, 0.0), complex(-math.inf, math.inf),
]

_points = st.one_of(
    st.sampled_from(_EDGE_POINTS),
    st.builds(complex, st.floats(-2.5, 2.5), st.just(0.0)),
    st.builds(complex, st.floats(-2.5, 1.0), st.floats(-1.5, 1.5)),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
)


class TestEscapeCounts:
    def test_known_points(self):
        # 0 is in the set (never escapes); 2+2j escapes immediately
        # after the first iteration.
        counts = escape_counts(np.array([0 + 0j, 2 + 2j]), max_iter=30)
        assert counts[0] == 30
        assert counts[1] == 1

    def test_interior_point_costs_max_iter(self):
        counts = escape_counts(np.array([-1 + 0j]), max_iter=64)
        assert counts[0] == 64  # period-2 cycle, never escapes

    def test_counts_monotone_in_max_iter(self):
        c = np.array([-0.75 + 0.3j, 0.3 + 0.5j, -1.5 + 0.2j])
        low = escape_counts(c, max_iter=8)
        high = escape_counts(c, max_iter=64)
        assert (high >= low).all()

    def test_shape_preserved(self):
        grid = np.zeros((5, 7), dtype=np.complex128)
        assert escape_counts(grid, 10).shape == (5, 7)

    def test_invalid_max_iter(self):
        with pytest.raises(WorkloadError):
            escape_counts(np.zeros(3, dtype=complex), 0)

    def test_compaction_matches_reference(self):
        # The compacted kernel must agree with the naive reference.
        rng = np.random.default_rng(0)
        c = (rng.uniform(-2, 1, 200) + 1j * rng.uniform(-1.5, 1.5, 200))
        fast = escape_counts(c, 40)
        z = np.zeros_like(c)
        ref = np.zeros(c.shape, dtype=np.int32)
        live = np.ones(c.shape, dtype=bool)
        for _ in range(40):
            z[live] = z[live] ** 2 + c[live]
            ref[live] += 1
            live &= np.abs(z) <= 2.0
        np.testing.assert_array_equal(fast, ref)

    @given(
        points=st.lists(_points, max_size=48),
        max_iter=st.integers(1, 64),
        two_d=st.booleans(),
        out_dtype=st.sampled_from([np.int32, np.int64]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_reference(
        self, points, max_iter, two_d, out_dtype
    ):
        c = np.array(points, dtype=np.complex128)
        if two_d:
            # An even count folds to two rows; the transpose makes the
            # input non-contiguous as well.
            c = c[: c.size // 2 * 2].reshape(2, -1).T
        with np.errstate(over="ignore", invalid="ignore"):
            got = escape_counts(c, max_iter, out_dtype=out_dtype)
        assert got.shape == c.shape and got.dtype == out_dtype
        expected = [scalar_escape(complex(p), max_iter) for p in c.flat]
        assert got.ravel().tolist() == expected


class TestWorkload:
    def test_paper_domain_default(self, small_mandelbrot):
        assert small_mandelbrot.domain == PAPER_DOMAIN

    def test_size_is_width(self, small_mandelbrot):
        assert small_mandelbrot.size == 96

    def test_costs_bounds(self, small_mandelbrot):
        costs = small_mandelbrot.costs()
        # Every pixel costs at least 1 and at most max_iter iterations.
        assert costs.min() >= small_mandelbrot.height
        assert costs.max() <= small_mandelbrot.height * 32

    def test_irregular_profile(self, small_mandelbrot):
        # The loop must actually be irregular (the paper's point).
        costs = small_mandelbrot.costs()
        assert costs.max() > 2 * costs.min()

    def test_cost_equals_column_sum(self, small_mandelbrot):
        col = 40
        assert small_mandelbrot.cost(col) == pytest.approx(
            small_mandelbrot.column_counts(col).sum()
        )

    def test_execute_matches_costs_pathway(self, small_mandelbrot):
        flat = small_mandelbrot.execute(10, 13)
        assert flat.shape == (3 * small_mandelbrot.height,)
        np.testing.assert_array_equal(
            flat[: small_mandelbrot.height],
            small_mandelbrot.column_counts(10),
        )

    def test_chunked_execution_equals_serial(self, small_mandelbrot):
        serial = small_mandelbrot.execute_serial()
        parts = [
            small_mandelbrot.execute(a, b)
            for a, b in [(0, 30), (30, 31), (31, 96)]
        ]
        np.testing.assert_array_equal(np.concatenate(parts), serial)

    def test_image_shape(self):
        wl = MandelbrotWorkload(20, 12, max_iter=16)
        assert wl.image().shape == (12, 20)

    def test_zero_width(self):
        wl = MandelbrotWorkload(0, 10)
        assert wl.costs().shape == (0,)
        assert wl.execute(0, 0).shape == (0,)

    def test_invalid_window(self):
        with pytest.raises(WorkloadError):
            MandelbrotWorkload(10, 0)

    def test_invalid_domain(self):
        with pytest.raises(WorkloadError):
            MandelbrotWorkload(10, 10, domain=(1.0, -1.0, 0.0, 1.0))

    def test_invalid_max_iter(self):
        for bad in (0, -5):
            with pytest.raises(WorkloadError, match="max_iter"):
                MandelbrotWorkload(10, 10, max_iter=bad)

    def test_block_boundary_consistency(self):
        # The blocked grid pass (budgets of one point, one column, a
        # block that splits the width unevenly, and the whole grid)
        # must equal per-column computation, memo included.
        fresh = MandelbrotWorkload(40, 16, max_iter=24)
        for budget in (1, 16, 16 * 7, 40 * 16):
            wl = MandelbrotWorkload(40, 16, max_iter=24)
            wl._COST_BLOCK = budget
            costs = wl._compute_costs()
            for col in range(40):
                counts = fresh.column_counts(col)
                assert costs[col] == counts.sum()
                memo = wl.column_counts(col)
                np.testing.assert_array_equal(memo, counts)
                assert not memo.flags.writeable

    def test_cost_pass_memory_is_bounded_by_points(self):
        # A tall window: the pass's transient working set is bounded
        # by the point budget, not by the columns-per-block x height
        # product (the whole 64 x 4096 grid in flight took ~18 MB).
        wl = MandelbrotWorkload(64, 4096)
        tracemalloc.start()
        try:
            wl._compute_costs()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - retained < 8 * 2 ** 20


class TestRenderAscii:
    def test_shape_and_charset(self):
        wl = MandelbrotWorkload(16, 8, max_iter=12)
        art = render_ascii(wl.image())
        lines = art.splitlines()
        assert len(lines) == 8
        assert all(len(line) == 16 for line in lines)

    def test_rejects_non_2d(self):
        with pytest.raises(WorkloadError):
            render_ascii(np.zeros(5))

    def test_constant_image(self):
        art = render_ascii(np.ones((2, 3)))
        assert art == "   \n   "
