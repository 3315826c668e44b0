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
The escape-time kernel is fully vectorized over a column (one complex
vector per column, iterated with a live-point mask), per the
numerical-Python guidance: the per-point Python loop would be ~100x
slower and this kernel is the hot path of every real execution.
Columns are computed lazily and memoized column-by-column so that a
worker executing chunk ``[a, b)`` touches only its own columns.
"""

from __future__ import annotations

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
    # difference between O(escaped work) and O(max_iter * grid) -- the
    # classic profile-then-vectorize win for this kernel.
    flat_c = c.reshape(-1)
    counts = np.zeros(flat_c.shape[0], dtype=out_dtype)
    live_idx = np.arange(flat_c.shape[0])
    z = np.zeros(flat_c.shape[0], dtype=np.complex128)
    cc = flat_c.copy()
    for _ in range(max_iter):
        z = z * z + cc
        counts[live_idx] += 1
        # |z| <= 2 without the sqrt of np.abs.
        alive = (z.real * z.real + z.imag * z.imag) <= 4.0
        if alive.all():
            continue
        live_idx = live_idx[alive]
        if live_idx.size == 0:
            break
        z = z[alive]
        cc = cc[alive]
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
        super().__init__(width)
        self.width = int(width)
        self.height = int(height)
        self.max_iter = int(max_iter)
        xmin, xmax, ymin, ymax = map(float, domain)
        if not (xmin < xmax and ymin < ymax):
            raise WorkloadError(f"degenerate domain {domain}")
        self.domain = (xmin, xmax, ymin, ymax)
        self._xs = np.linspace(xmin, xmax, num=max(width, 1))
        self._ys = np.linspace(ymin, ymax, num=height)
        # Column-count cache: computed on demand, shared by cost() and
        # execute() so simulation and execution agree exactly.
        self._columns: dict[int, np.ndarray] = {}

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

    def __getstate__(self) -> dict:
        """Pickle without the column memo: pool workers re-derive any
        column they actually execute, and shipping a full-grid memo
        (hundreds of MB at paper scale) would swamp job submission."""
        state = super().__getstate__()
        state["_columns"] = {}
        return state

    # -- kernels ---------------------------------------------------------------

    def column_counts(self, col: int) -> np.ndarray:
        """Escape counts for every pixel of column ``col`` (memoized)."""
        if not 0 <= col < self.width:
            raise WorkloadError(
                f"column {col} out of range [0, {self.width})"
            )
        cached = self._columns.get(col)
        if cached is None:
            c = self._xs[col] + 1j * self._ys
            cached = escape_counts(c, self.max_iter)
            cached.setflags(write=False)
            self._columns[col] = cached
        return cached

    #: Columns per block in the whole-grid cost pass.  Blocks keep the
    #: working set cache-sized: one giant grid pass thrashes (hundreds
    #: of MB of complex128 temporaries) while ~512 columns x 2000 rows
    #: stays around 16 MB.
    _COST_BLOCK = 512

    def _compute_costs(self) -> np.ndarray:
        # Whole-grid vectorized pass, block of columns at a time.  This
        # is the profile of Figure 1 (per-column basic computations).
        if self.width == 0:
            return np.zeros(0)
        costs = np.empty(self.width, dtype=np.float64)
        for lo in range(0, self.width, self._COST_BLOCK):
            hi = min(lo + self._COST_BLOCK, self.width)
            c = self._xs[None, lo:hi] + 1j * self._ys[:, None]
            counts = escape_counts(c, self.max_iter)
            for col in range(lo, hi):
                frozen = counts[:, col - lo].copy()
                frozen.setflags(write=False)
                self._columns.setdefault(col, frozen)
            costs[lo:hi] = counts.sum(axis=0, dtype=np.float64)
        return costs

    def execute(self, start: int, stop: int) -> np.ndarray:
        """Compute columns ``[start, stop)``; returns counts flattened
        column-by-column (length ``(stop-start) * height``)."""
        if not 0 <= start <= stop <= self.width:
            raise WorkloadError(
                f"chunk [{start}, {stop}) out of range [0, {self.width}]"
            )
        if start == stop:
            return np.zeros(0, dtype=np.int32)
        return np.concatenate(
            [self.column_counts(col) for col in range(start, stop)]
        )

    def burn(self, start: int, stop: int) -> None:
        """Recompute columns without the memo cache (slowdown emulation)."""
        if not 0 <= start <= stop <= self.width:
            raise WorkloadError(
                f"chunk [{start}, {stop}) out of range [0, {self.width}]"
            )
        for col in range(start, stop):
            escape_counts(self._xs[col] + 1j * self._ys, self.max_iter)

    def image(self) -> np.ndarray:
        """The full ``height x width`` escape-count image (Figure 2)."""
        flat = self.execute(0, self.width)
        return flat.reshape(self.width, self.height).T


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
