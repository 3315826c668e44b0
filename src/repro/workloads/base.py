"""Workload protocol: a parallel loop with per-iteration costs.

The paper's loop taxonomy (Sec. 2.1) classifies parallel loops by the
shape of ``L(i)``, the execution time of iteration ``i``: *uniform*,
*linearly distributed* (increasing/decreasing), *conditional*, and
*irregular* (the Mandelbrot case -- "the most severe test for a
scheduling scheme").

A :class:`Workload` exposes both faces a scheduling experiment needs:

* an **abstract cost profile** ``cost(i)`` in *basic computations*
  (the paper's Figure 1 y-axis) -- the discrete-event simulator charges
  ``cost(chunk) / effective_speed`` of virtual time per chunk;
* a **concrete executor** ``execute(start, stop)`` that really computes
  the iterations -- the multiprocessing runtime runs this, and engines
  use it to verify that scheduled execution reproduces serial results.

Costs are cached as a NumPy vector with a prefix-sum, so chunk costs are
O(1) regardless of chunk size.

Workloads whose cost vector is a pure function of their construction
parameters additionally expose :meth:`Workload.cost_signature`, which
:meth:`Workload.cost_key` hashes into a content address; ``costs()``
then consults the persistent :mod:`repro.cache` store before running
``_compute_costs()``, so an expensive profile (the Mandelbrot grid) is
computed once per machine rather than once per experiment module.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from .. import cache as _cost_cache

__all__ = ["Workload", "WorkloadError"]


class WorkloadError(ValueError):
    """Raised for invalid workload parameters or out-of-range indices."""


class Workload(ABC):
    """A parallel loop of ``size`` independent iterations ("tasks")."""

    def __init__(self, size: int) -> None:
        if size < 0:
            raise WorkloadError(f"size must be >= 0, got {size}")
        self._size = int(size)
        self._costs: Optional[np.ndarray] = None
        self._prefix: Optional[np.ndarray] = None

    @property
    def size(self) -> int:
        """Number of loop iterations ``I``."""
        return self._size

    #: short label used in experiment reports.
    name: str = "workload"

    # -- cost profile --------------------------------------------------------

    @abstractmethod
    def _compute_costs(self) -> np.ndarray:
        """Return the full ``L(i)`` vector (float64, length ``size``)."""

    def cost_signature(self) -> Optional[list]:
        """JSON-able parameters that fully determine the cost vector.

        ``None`` (the default) marks the profile uncacheable -- either
        because it is trivially cheap or because it depends on state
        outside the constructor arguments.  Deterministic workloads
        (Mandelbrot, reordering wrappers) override this; the signature
        feeds :meth:`cost_key` and must change whenever any parameter
        that changes ``L(i)`` changes.
        """
        return None

    def cost_key(self) -> Optional[str]:
        """Content address of the cost vector (``None`` = uncacheable)."""
        signature = self.cost_signature()
        if signature is None:
            return None
        return _cost_cache.signature_key(signature)

    #: memo of :meth:`cost_digest`; an instance attribute only once
    #: computed, so workloads that never need it pickle without it.
    _cost_digest: Optional[str] = None

    def cost_digest(self) -> str:
        """sha256 of the resolved cost vector, computed once.

        The identity of a workload that has no :meth:`cost_signature`:
        two such workloads of one class and size are told apart only
        by what ``L(i)`` they resolve to.
        """
        costs = self.costs()
        if self._cost_digest is None:
            self._cost_digest = hashlib.sha256(costs.tobytes()).hexdigest()
        return self._cost_digest

    def _install_costs(self, costs: np.ndarray) -> np.ndarray:
        """Validate, freeze, and prefix-sum a cost vector."""
        costs = np.ascontiguousarray(costs, dtype=np.float64)
        if costs.shape != (self._size,):
            raise WorkloadError(
                f"cost vector shape {costs.shape} != ({self._size},)"
            )
        # ``not >=`` rather than ``<``: a NaN minimum compares false
        # both ways, and the simulators read a NaN cost as zero work.
        if self._size and not (costs.min() >= 0 and costs.max() < np.inf):
            raise WorkloadError("iteration costs must be finite and >= 0")
        costs = costs.copy() if not costs.flags.owndata else costs
        costs.setflags(write=False)
        self._costs = costs
        vars(self).pop("_cost_digest", None)
        vars(self).pop("_prefix_list", None)
        prefix = np.concatenate(([0.0], np.cumsum(costs)))
        prefix.setflags(write=False)
        self._prefix = prefix
        return costs

    def costs(self) -> np.ndarray:
        """The full cost vector, computed once and cached (read-only).

        Lookup order: this instance's memo, the persistent cost-profile
        cache (:mod:`repro.cache`, keyed by :meth:`cost_key`), and only
        then ``_compute_costs()``; a fresh computation is written back
        to the persistent cache.
        """
        if self._costs is None:
            key = self.cost_key()
            cached = _cost_cache.get_cache().get(key)
            if cached is not None:
                try:
                    self._install_costs(cached)
                except WorkloadError:
                    cached = None  # poisoned entry: recompute below
            if cached is None:
                self._install_costs(self._compute_costs())
                _cost_cache.get_cache().put(key, self._costs)
        return self._costs

    def cost(self, index: int) -> float:
        """``L(index)``: basic computations for one iteration."""
        if not 0 <= index < self._size:
            raise WorkloadError(
                f"iteration {index} out of range [0, {self._size})"
            )
        return float(self.costs()[index])

    def chunk_cost(self, start: int, stop: int) -> float:
        """Total cost of iterations ``[start, stop)`` in O(1)."""
        if not 0 <= start <= stop <= self._size:
            raise WorkloadError(
                f"chunk [{start}, {stop}) out of range [0, {self._size}]"
            )
        self.costs()
        assert self._prefix is not None
        return float(self._prefix[stop] - self._prefix[start])

    #: memo of :meth:`prefix_list`; an instance attribute only once
    #: computed, and never pickled (see :meth:`__getstate__`).
    _prefix_list: Optional[list[float]] = None

    def prefix_list(self) -> list[float]:
        """The cost prefix sums as a plain float list, built once.

        ``pref[stop] - pref[start]`` on python floats is bit-identical
        to :meth:`chunk_cost` and several times cheaper per chunk; the
        simulators' inner loops read this.  No range check: the caller
        owns it.
        """
        if self._prefix_list is None:
            self.costs()
            assert self._prefix is not None
            self._prefix_list = self._prefix.tolist()
        return self._prefix_list

    def total_cost(self) -> float:
        """Total serial basic computations of the whole loop."""
        return self.chunk_cost(0, self._size)

    # -- execution -------------------------------------------------------------

    def execute(self, start: int, stop: int) -> np.ndarray:
        """Actually compute iterations ``[start, stop)``; return results.

        The default implementation returns the cost values themselves
        (adequate for synthetic loops whose "result" is their profile);
        real workloads (Mandelbrot) override this with the true
        computation.  Results concatenated over any partition of
        ``[0, size)`` in index order must equal a serial run -- engines
        assert this.
        """
        if not 0 <= start <= stop <= self._size:
            raise WorkloadError(
                f"chunk [{start}, {stop}) out of range [0, {self._size}]"
            )
        return np.asarray(self.costs()[start:stop])

    def execute_serial(self) -> np.ndarray:
        """Run the whole loop serially (baseline for correctness/speedup)."""
        return self.execute(0, self._size)

    def burn(self, start: int, stop: int) -> None:
        """Re-do the work of ``[start, stop)`` without using any cache.

        The multiprocessing runtime emulates slower PEs by re-executing
        chunks; workloads that memoize results (Mandelbrot) override
        this so the re-execution actually burns CPU.
        """
        self.execute(start, stop)

    def __getstate__(self) -> dict:
        """Pickle without the :meth:`prefix_list` memo: the far side
        rebuilds it from the prefix array on first use, for less than
        it costs to ship a float list at nine bytes an entry."""
        state = self.__dict__.copy()
        state.pop("_prefix_list", None)
        return state

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name} size={self._size}>"
