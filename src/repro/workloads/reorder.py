"""Loop reordering by sampling -- paper Sec. 2.1.

"For a loop with I iterations, a sampling frequency ``S_f`` is given.
We sample the loop ``S_f`` times, taking first the iterations whose
index ``i`` satisfies ``i mod S_f = 0``, then the iterations with
``i mod S_f = 1``, and so on.  After sampling, the ``S_f`` samples are
placed in a sequence."  Iterations are independent, so the sampled loop
computes the same results; chunks of consecutive *reordered* indices
stripe across the original domain and "the loop appears more uniform"
(Figure 1b).  The paper runs every experiment with ``S_f = 4``.

:func:`sampling_permutation` builds the permutation;
:class:`ReorderedWorkload` wraps any workload so schedulers and engines
operate transparently in the reordered index space, with
:meth:`~ReorderedWorkload.restore` mapping gathered results back to
original order.
"""

from __future__ import annotations

import functools

import numpy as np

from .base import Workload, WorkloadError

__all__ = ["sampling_permutation", "inverse_permutation", "ReorderedWorkload"]


def sampling_permutation(size: int, sf: int) -> np.ndarray:
    """Permutation ``perm`` with ``perm[new_index] = original_index``.

    ``sf = 1`` is the identity.  ``sf`` may exceed ``size`` (degenerate
    samples are empty); it must be positive.
    """
    if size < 0:
        raise WorkloadError(f"size must be >= 0, got {size}")
    if sf < 1:
        raise WorkloadError(f"sampling frequency must be >= 1, got {sf}")
    # Samples r >= size are empty, so only the first min(sf, size)
    # contribute: O(size) whatever sf is.
    return np.concatenate(
        [np.arange(r, size, sf, dtype=np.int64)
         for r in range(min(sf, size))]
    ) if size else np.zeros(0, dtype=np.int64)


def inverse_permutation(perm: np.ndarray) -> np.ndarray:
    """Inverse of a permutation vector: ``inv[perm[k]] = k``."""
    perm = np.asarray(perm, dtype=np.int64)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size, dtype=np.int64)
    return inv


class ReorderedWorkload(Workload):
    """View of ``inner`` with iterations permuted by sampling order.

    Iteration ``k`` of this workload is iteration ``perm[k]`` of the
    inner workload; costs and execution follow.  ``execute`` returns
    one result row per iteration (the inner per-iteration result), so
    results can be un-permuted with :meth:`restore`.
    """

    def __init__(self, inner: Workload, sf: int) -> None:
        if sf < 1:
            raise WorkloadError(f"sampling frequency must be >= 1, got {sf}")
        super().__init__(inner.size)
        self.inner = inner
        self.sf = int(sf)
        self.name = f"{inner.name}/Sf={sf}"

    @functools.cached_property
    def perm(self) -> np.ndarray:
        """``perm[new_index] = original_index``: ``size`` and ``sf``
        rebuild it."""
        return sampling_permutation(self.size, self.sf)

    def cost_signature(self):
        """Cacheable iff the inner profile is: the reordered vector is
        the inner signature plus the sampling frequency (which fixes
        the permutation)."""
        inner = self.inner.cost_signature()
        if inner is None:
            return None
        return ["reordered", self.sf, inner]

    def _compute_costs(self) -> np.ndarray:
        inner_costs = self.inner._resolve_costs()
        return inner_costs[self.perm] if self.size else inner_costs

    def _block(self, idx: np.ndarray) -> np.ndarray:
        """The inner workload's rows for ``perm[idx]``, in one call."""
        rows = self.inner._block(self.perm[idx])
        return rows.reshape(len(rows), -1)

    def _burn(self, idx: np.ndarray) -> None:
        self.inner._burn(self.perm[idx])

    def execute(self, start: int, stop: int) -> np.ndarray:
        """One ``(n, k)`` row per iteration; ``np.zeros(0)`` if empty."""
        self._check(start, stop)
        return self._block(np.arange(start, stop)) if stop > start \
            else np.zeros(0)

    def burn(self, start: int, stop: int) -> None:
        """Forward cache-bypassing re-execution to the inner workload."""
        self._check(start, stop)
        self._burn(np.arange(start, stop))

    def restore(self, rows: np.ndarray) -> np.ndarray:
        """Un-permute per-iteration result rows back to original order."""
        rows = np.asarray(rows)
        if rows.shape[0] != self.size:
            raise WorkloadError(
                f"expected {self.size} result rows, got {rows.shape[0]}"
            )
        return rows[inverse_permutation(self.perm)]
