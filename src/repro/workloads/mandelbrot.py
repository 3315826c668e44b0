"""Mandelbrot-set column workload -- the paper's test problem (Sec. 2.1).

The paper computes the Mandelbrot fractal on the domain
``[-2.0, 1.25] x [-1.25, 1.25]`` for window sizes like 4000x2000; "the
computation of one column is considered the smallest unit that can be
scheduled independently (i.e. a task)", so a ``width x height`` window
is a parallel loop of ``I = width`` iterations whose cost ``L(i)`` is
the total escape-time iteration count down column ``i`` -- an
*irregular, unpredictable* profile (Figure 1 shows 1200..56000 basic
computations per column for a 1200x1200 window).

Implementation notes
--------------------
The escape-time kernel is fully vectorized (one complex vector of
points, compacted to the live set as points escape), per the
numerical-Python guidance: the per-point Python loop would be ~100x
slower and this kernel is the hot path of every real execution.  It
steps ``z`` in place and records each point's count once, at the step
it escapes; the complex ufuncs and the ``re*re + im*im <= 4.0`` test
are kept exactly, which is what keeps the counts the same integers on
every path.  It is called from one place, ``_kernel``, over a set of
columns in calls bounded by points
(:attr:`MandelbrotWorkload._COST_BLOCK`), so its working set does not
grow with the window height.  Columns are computed lazily, a chunk's
missing ones in those calls, and memoized column-by-column so that a
worker executing chunk ``[a, b)`` touches only its own columns.
"""

from __future__ import annotations

import functools
from typing import Iterator

import numpy as np

from .base import Workload, WorkloadError

__all__ = ["MandelbrotWorkload", "escape_counts", "render_ascii"]

#: The paper's domain: real in [-2.0, 1.25], imaginary in [-1.25, 1.25].
PAPER_DOMAIN = (-2.0, 1.25, -1.25, 1.25)


def escape_counts(
    c: np.ndarray, max_iter: int, *, out_dtype=np.int32
) -> np.ndarray:
    """Escape-time iteration counts for an array of complex points.

    Returns, per point, the number of iterations of ``z <- z^2 + c``
    performed before ``|z| > 2`` (points that never escape cost the full
    ``max_iter``).  This count *is* the paper's "basic computations"
    measure: work is proportional to iterations executed.
    """
    if max_iter < 1:
        raise WorkloadError(f"max_iter must be >= 1, got {max_iter}")
    c = np.asarray(c, dtype=np.complex128)
    shape = c.shape
    # Work on compacted live-point vectors: most points escape within a
    # few iterations, so shrinking the working set each step is the
    # difference between O(escaped work) and O(max_iter * grid).  A
    # point's count is the step it escapes at, written once; survivors
    # keep the ``max_iter`` they start with.
    cc = c.reshape(-1)
    n = cc.shape[0]
    counts = np.full(n, max_iter, dtype=out_dtype)
    live_idx = np.arange(n)
    z = np.zeros(n, dtype=np.complex128)
    # |z|^2 scratch, trimmed to the live set as it shrinks.
    mag = np.empty(n, dtype=np.float64)
    tmp = np.empty(n, dtype=np.float64)
    alive = np.empty(n, dtype=bool)
    for step in range(1, max_iter + 1):
        np.multiply(z, z, out=z)
        np.add(z, cc, out=z)
        # |z| <= 2 without the sqrt of np.abs.
        np.multiply(z.real, z.real, out=mag)
        np.multiply(z.imag, z.imag, out=tmp)
        np.add(mag, tmp, out=mag)
        np.less_equal(mag, 4.0, out=alive)
        if alive.all():
            continue
        counts[live_idx[~alive]] = step
        live_idx = live_idx[alive]
        m = live_idx.size
        if m == 0:
            break
        z = z[alive]
        cc = cc[alive]
        mag, tmp, alive = mag[:m], tmp[:m], alive[:m]
    return counts.reshape(shape)


class MandelbrotWorkload(Workload):
    """One task per pixel column of a ``width x height`` window.

    Parameters mirror the paper: ``domain`` defaults to
    ``[-2.0, 1.25] x [-1.25, 1.25]``; ``max_iter`` bounds the escape
    loop.  ``execute`` returns the per-pixel escape counts of the
    requested columns flattened in column-major task order, so that
    concatenating chunk results in index order reconstructs the image.
    """

    name = "mandelbrot"

    def __init__(
        self,
        width: int,
        height: int,
        max_iter: int = 64,
        domain: tuple[float, float, float, float] = PAPER_DOMAIN,
    ) -> None:
        if width < 0 or height < 1:
            raise WorkloadError(
                f"invalid window {width}x{height}: width >= 0, height >= 1"
            )
        if int(max_iter) < 1:
            raise WorkloadError(f"max_iter must be >= 1, got {max_iter}")
        super().__init__(width)
        self.width = int(width)
        self.height = int(height)
        self.max_iter = int(max_iter)
        xmin, xmax, ymin, ymax = map(float, domain)
        if not (xmin < xmax and ymin < ymax):
            raise WorkloadError(f"degenerate domain {domain}")
        self.domain = (xmin, xmax, ymin, ymax)

    def cost_signature(self) -> list:
        """Everything that determines the Figure 1 profile -- class,
        window, iteration bound, and domain -- for the persistent
        cost-profile cache (:mod:`repro.cache`)."""
        return [
            "mandelbrot",
            self.width,
            self.height,
            self.max_iter,
            list(self.domain),
        ]

    @functools.cached_property
    def _xs(self) -> np.ndarray:
        """The pixel columns' real parts, ``width`` of them."""
        xmin, xmax, _, _ = self.domain
        return np.linspace(xmin, xmax, num=max(self.width, 1))

    @functools.cached_property
    def _ys(self) -> np.ndarray:
        """The pixel rows' imaginary parts, ``height`` of them."""
        _, _, ymin, ymax = self.domain
        return np.linspace(ymin, ymax, num=self.height)

    @functools.cached_property
    def _columns(self) -> dict[int, np.ndarray]:
        """Column-count memo, filled on demand by :meth:`_block` and
        shared by cost() and execute() so simulation and execution
        agree exactly.  A pool worker re-derives any column it
        executes: a full-grid memo is hundreds of MB at paper scale."""
        return {}

    # -- kernels ---------------------------------------------------------------

    #: Points per :func:`escape_counts` call, in whole columns (at least
    #: one).  The kernel holds ~80 B a point in flight, so a call's
    #: working set stays near 2.5 MB at any window height.
    _COST_BLOCK = 1 << 15

    def _kernel(self, cols: list[int] | np.ndarray) -> Iterator[tuple]:
        """Yield ``(block, counts)`` over the columns ``cols``, a block
        of ``_COST_BLOCK`` points at a time, one row of counts per
        column: the one call site of :func:`escape_counts`."""
        step = max(1, self._COST_BLOCK // self.height)
        for lo in range(0, len(cols), step):
            block = cols[lo:lo + step]
            # One row per column, so each column's counts are contiguous.
            c = self._xs[block, None] + 1j * self._ys[None, :]
            yield block, escape_counts(c, self.max_iter)

    def _block(self, idx: np.ndarray) -> np.ndarray:
        """Columns ``idx``'s counts, one row each, from the memo; the
        columns it lacks are computed first and stored as read-only
        copies (views measured 5 MB more peak RSS at 4000x2000)."""
        memo, cols = self._columns, idx.tolist()
        missing = [col for col in cols if col not in memo]
        for block, counts in self._kernel(missing):
            for col, row in zip(block, counts):
                memo[col] = row.copy()
                memo[col].setflags(write=False)
        rows = np.array([memo[col] for col in cols], dtype=np.int32)
        return rows.reshape(len(cols), self.height)

    def _burn(self, idx: np.ndarray) -> None:
        """Recompute columns ``idx`` in :meth:`_kernel`'s calls, no memo."""
        for _ in self._kernel(idx):
            pass

    def column_counts(self, col: int) -> np.ndarray:
        """Escape counts for every pixel of column ``col`` (memoized,
        read-only)."""
        if not 0 <= col < self.width:
            raise WorkloadError(f"column {col} out of range [0, {self.width})")
        self._block(np.array([col]))
        return self._columns[col]

    def _compute_costs(self) -> np.ndarray:
        # Figure 1's profile (per-column basic computations), one kernel
        # call's columns per gather: a whole-grid gather is a second memo.
        step = max(1, self._COST_BLOCK // self.height)
        return np.concatenate([np.zeros(0), *(
            self._block(np.arange(lo, min(lo + step, self.width))).sum(axis=1)
            for lo in range(0, self.width, step))])

    def burn(self, start: int, stop: int) -> None:
        """Recompute columns without the memo cache (slowdown
        emulation): a burn costs what a cold execute does."""
        self._check(start, stop)
        self._burn(np.arange(start, stop))

    def image(self) -> np.ndarray:
        """The full ``height x width`` escape-count image (Figure 2)."""
        return self._block(np.arange(self.width)).T


def render_ascii(
    image: np.ndarray, charset: str = " .:-=+*#%@"
) -> str:
    """Render an escape-count image as ASCII art (Figure 2 stand-in)."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise WorkloadError(f"image must be 2-D, got shape {img.shape}")
    lo, hi = float(img.min()), float(img.max())
    span = (hi - lo) or 1.0
    idx = ((img - lo) / span * (len(charset) - 1)).round().astype(int)
    return "\n".join("".join(charset[v] for v in row) for row in idx)
