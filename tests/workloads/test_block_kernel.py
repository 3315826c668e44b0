"""A workload computes a chunk's iterations in one call.

The count pin: a cold Mandelbrot chunk makes one ``escape_counts`` call
per ``_COST_BLOCK`` points of its missing columns, a warm one none, a
burn one per block, and the sampling wrapper asks its inner workload
once per chunk.  The property: every chunk, bare or reordered, equals a
one-shot full-grid oracle bit for bit, and the synthetic loops keep
their result forms.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import (
    ConditionalWorkload,
    GaussianPeakWorkload,
    LinearWorkload,
    MandelbrotWorkload,
    RandomWorkload,
    ReorderedWorkload,
    SpinWorkload,
    TraceWorkload,
    UniformWorkload,
    escape_counts,
)
from repro.workloads import mandelbrot as mandelbrot_module

#: Window of the count pin: 24 columns of 16 points, three columns (48
#: points) a kernel call.
WIDTH, HEIGHT, PER_CALL = 24, 16, 3


@pytest.fixture
def kernel_calls(monkeypatch):
    """The point count of every ``escape_counts`` call, in order."""
    calls: list[int] = []

    def counted(c, max_iter, **kwargs):
        calls.append(np.asarray(c).size)
        return escape_counts(c, max_iter, **kwargs)

    monkeypatch.setattr(mandelbrot_module, "escape_counts", counted)
    return calls


def reordered_window() -> ReorderedWorkload:
    inner = MandelbrotWorkload(WIDTH, HEIGHT, max_iter=16)
    inner._COST_BLOCK = PER_CALL * HEIGHT
    return ReorderedWorkload(inner, sf=4)


def calls_for(columns: int) -> list[int]:
    """The calls ``columns`` missing columns take: full blocks first."""
    full, rest = divmod(columns, PER_CALL)
    return [PER_CALL * HEIGHT] * full + [rest * HEIGHT] * (rest > 0)


class TestKernelCallCount:
    def test_cold_chunk_calls_once_per_block_of_missing_columns(
            self, kernel_calls):
        wl = reordered_window()
        wl.execute(2, 12)
        assert kernel_calls == calls_for(10)

    def test_partly_warm_chunk_computes_only_what_it_lacks(
            self, kernel_calls):
        wl = reordered_window()
        wl.execute(2, 12)
        del kernel_calls[:]
        wl.execute(8, 16)
        assert kernel_calls == calls_for(4)

    def test_warm_chunk_makes_no_call(self, kernel_calls):
        wl = reordered_window()
        wl.execute(0, WIDTH)
        del kernel_calls[:]
        wl.execute(3, 17)
        wl.inner.execute(5, 9)
        wl.inner.column_counts(7)
        assert kernel_calls == []

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_burn_calls_once_per_block(self, kernel_calls, warm):
        wl = reordered_window()
        if warm:
            wl.execute(0, WIDTH)
            del kernel_calls[:]
        wl.burn(2, 12)
        wl.inner.burn(0, 7)
        assert kernel_calls == calls_for(10) + calls_for(7)

    def test_cost_pass_calls_once_per_block(self, kernel_calls):
        wl = reordered_window()
        wl.costs()
        assert kernel_calls == calls_for(WIDTH)

    def test_reordered_asks_its_inner_once_per_chunk(self, monkeypatch):
        wl = reordered_window()
        asked: list[str] = []
        for name in ("execute", "burn", "_block", "_burn"):
            method = getattr(wl.inner, name, None)

            def counted(*args, _name=name, _method=method):
                asked.append(_name)
                return _method(*args)

            monkeypatch.setattr(wl.inner, name, counted, raising=False)
        wl.execute(1, 13)
        wl.burn(1, 13)
        wl.execute(4, 4)
        assert asked == ["_block", "_burn"]


# -- bit identity ---------------------------------------------------------


def grid_oracle(wl: MandelbrotWorkload) -> np.ndarray:
    """Every column's counts, one row each, from one kernel call."""
    xmin, xmax, ymin, ymax = wl.domain
    xs = np.linspace(xmin, xmax, num=max(wl.width, 1))
    ys = np.linspace(ymin, ymax, num=wl.height)
    return escape_counts(xs[:, None] + 1j * ys[None, :], wl.max_iter)


@st.composite
def windows(draw):
    width = draw(st.integers(1, 40))
    wl = MandelbrotWorkload(width, draw(st.integers(1, 24)),
                            max_iter=draw(st.integers(1, 40)))
    wl._COST_BLOCK = draw(st.sampled_from([1, 7, 64, 1 << 15]))
    a, b = sorted(draw(st.lists(st.integers(0, width), min_size=2,
                                max_size=2)))
    return wl, draw(st.integers(1, 6)), a, b


@given(windows(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_mandelbrot_chunk_equals_the_grid_oracle(case, warm):
    inner, sf, a, b = case
    grid = grid_oracle(inner)
    wl = ReorderedWorkload(inner, sf)
    if warm:
        wl.costs()
    rows = wl.execute(a, b)
    if a == b:
        assert rows.dtype == np.float64 and rows.shape == (0,)
    else:
        expected = grid[wl.perm[a:b]]
        assert rows.dtype == np.int32 and rows.shape == expected.shape
        np.testing.assert_array_equal(rows, expected)
    flat = inner.execute(a, b)
    assert flat.dtype == np.int32 and flat.shape == ((b - a) * inner.height,)
    np.testing.assert_array_equal(flat, grid[a:b].reshape(-1))
    memo = dict(inner._columns)
    wl.burn(a, b)
    inner.burn(a, b)
    assert inner._columns.keys() == memo.keys()
    assert all(inner._columns[col] is row for col, row in memo.items())
    for col in {a, b - 1} - {-1, inner.width}:
        counts = inner.column_counts(col)
        assert counts is inner._columns[col] and not counts.flags.writeable
        np.testing.assert_array_equal(counts, grid[col])
    np.testing.assert_array_equal(inner.image(), grid.T)
    np.testing.assert_array_equal(wl.restore(wl.execute(0, wl.size)), grid)


SYNTHETIC = [
    lambda n: UniformWorkload(n, unit=2.5),
    lambda n: LinearWorkload(n, increasing=False, slope=0.5),
    lambda n: ConditionalWorkload(n),
    lambda n: RandomWorkload(n, seed=3),
    lambda n: TraceWorkload(np.arange(1.0, n + 1.0)),
    lambda n: SpinWorkload(n, spins=2, veclen=16),
    lambda n: GaussianPeakWorkload(n),
]


@st.composite
def synthetic_spans(draw):
    size = draw(st.integers(1, 30))
    a, b = sorted(draw(st.lists(st.integers(0, size), min_size=2,
                                max_size=2)))
    return draw(st.sampled_from(SYNTHETIC))(size), draw(
        st.integers(1, 6)), a, b


@given(synthetic_spans())
@settings(max_examples=150, deadline=None)
def test_synthetic_chunks_keep_their_forms(case):
    inner, sf, a, b = case
    serial = inner.execute_serial()
    assert serial.dtype == np.float64 and serial.shape == (inner.size,)
    bare = inner.execute(a, b)
    assert bare.dtype == np.float64 and bare.shape == (b - a,)
    np.testing.assert_array_equal(bare, serial[a:b])
    wl = ReorderedWorkload(inner, sf)
    rows = wl.execute(a, b)
    if a == b:
        assert rows.dtype == np.float64 and rows.shape == (0,)
    else:
        assert rows.dtype == np.float64 and rows.shape == (b - a, 1)
        np.testing.assert_array_equal(rows[:, 0], serial[wl.perm[a:b]])
    wl.burn(a, b)
    np.testing.assert_array_equal(
        wl.restore(wl.execute(0, wl.size))[:, 0], serial)
