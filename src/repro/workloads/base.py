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

A workload pickles by one rule (:func:`uncached_state`): what it
derives is a :class:`functools.cached_property`, left behind and rebuilt
on first read, so what crosses is its constructor arguments and its
resolved cost vector.

Workloads whose cost vector is a pure function of their construction
parameters additionally expose :meth:`Workload.cost_signature`, which
:meth:`Workload.cost_key` hashes into a content address; ``costs()``
then consults the persistent :mod:`repro.cache` store before running
``_compute_costs()``, so an expensive profile (the Mandelbrot grid) is
computed once per machine rather than once per experiment module.
"""

from __future__ import annotations

import functools
import hashlib
from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from .. import cache as _cost_cache

__all__ = ["Workload", "WorkloadError", "uncached_state"]


class WorkloadError(ValueError):
    """Raised for invalid workload parameters or out-of-range indices."""


@functools.cache
def _cached_names(cls: type) -> frozenset:
    """The names of ``cls``'s cached properties, inherited ones too."""
    return frozenset(
        name for klass in cls.__mro__ for name, attr in vars(klass).items()
        if isinstance(attr, functools.cached_property)
    )


def uncached_state(obj) -> dict:
    """``obj``'s instance state without its cached properties' values:
    a pickle's bytes do not depend on which derived values were read."""
    drop = _cached_names(type(obj))
    return {k: v for k, v in obj.__dict__.items() if k not in drop}


class Workload(ABC):
    """A parallel loop of ``size`` independent iterations ("tasks")."""

    def __init__(self, size: int) -> None:
        if size < 0:
            raise WorkloadError(f"size must be >= 0, got {size}")
        self._size = int(size)
        self._costs: Optional[np.ndarray] = None

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

    def cost_digest(self) -> str:
        """sha256 of the resolved cost vector, computed once.

        The identity of a workload that has no :meth:`cost_signature`:
        two such workloads of one class and size are told apart only
        by what ``L(i)`` they resolve to.
        """
        return self._cost_digest

    @functools.cached_property
    def _cost_digest(self) -> str:
        return hashlib.sha256(self.costs().tobytes()).hexdigest()

    def _checked(self, costs: np.ndarray) -> np.ndarray:
        """Validate and freeze a cost vector."""
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
        return costs

    def _resolve_costs(self) -> np.ndarray:
        """The cost vector, installed on no one: this instance's, else
        the persistent cache's (:mod:`repro.cache`, by :meth:`cost_key`),
        else ``_compute_costs()``, written back to that cache."""
        if self._costs is not None:
            return self._costs
        key = self.cost_key()
        cached = _cost_cache.get_cache().get(key)
        if cached is not None:
            try:
                return self._checked(cached)
            except WorkloadError:
                pass  # poisoned entry: recompute below
        costs = self._checked(self._compute_costs())
        _cost_cache.get_cache().put(key, costs)
        return costs

    @functools.cached_property
    def _resolved(self) -> np.ndarray:
        """What the default :meth:`_block` reads: executing a
        wrapper's inner loop installs nothing on it."""
        return self._resolve_costs()

    def costs(self) -> np.ndarray:
        """The full cost vector, resolved and installed once (read-only),
        before any other derived value reads it."""
        if self._costs is None:
            self._costs = self._resolved
        return self._costs

    def cost(self, index: int) -> float:
        """``L(index)``: basic computations for one iteration."""
        if not 0 <= index < self._size:
            raise WorkloadError(
                f"iteration {index} out of range [0, {self._size})"
            )
        return float(self.costs()[index])

    def _check(self, start: int, stop: int) -> None:
        """The one chunk range check: ``0 <= start <= stop <= size``."""
        if not 0 <= start <= stop <= self._size:
            raise WorkloadError(
                f"chunk [{start}, {stop}) out of range [0, {self._size}]"
            )

    def chunk_cost(self, start: int, stop: int) -> float:
        """Total cost of iterations ``[start, stop)`` in O(1)."""
        self._check(start, stop)
        prefix = self._prefix
        return float(prefix[stop] - prefix[start])

    @functools.cached_property
    def _prefix(self) -> np.ndarray:
        """``[0, L(0), L(0) + L(1), ...]``, read-only."""
        prefix = np.concatenate(([0.0], np.cumsum(self.costs())))
        prefix.setflags(write=False)
        return prefix

    def prefix_list(self) -> list[float]:
        """The cost prefix sums as a plain float list, built once.

        ``pref[stop] - pref[start]`` on python floats is bit-identical
        to :meth:`chunk_cost` and several times cheaper per chunk; the
        simulators' inner loops read this.  No range check: the caller
        owns it.
        """
        return self._prefix_list

    @functools.cached_property
    def _prefix_list(self) -> list[float]:
        return self._prefix.tolist()

    def total_cost(self) -> float:
        """Total serial basic computations of the whole loop."""
        return self.chunk_cost(0, self._size)

    # -- execution -------------------------------------------------------------

    def _block(self, idx: np.ndarray) -> np.ndarray:
        """One result row per iteration in ``idx``: the hook
        :meth:`execute` is written over.  By default the costs (a
        synthetic loop's "result" is its profile)."""
        return self._resolved[idx]

    def _burn(self, idx: np.ndarray) -> None:
        """Re-do the work of iterations ``idx`` without any memo."""
        self._block(idx)

    def execute(self, start: int, stop: int) -> np.ndarray:
        """Actually compute iterations ``[start, stop)``; return results.

        The chunk's rows in one :meth:`_block` call, flattened.
        Results concatenated over any partition of ``[0, size)`` in
        index order must equal a serial run -- engines assert this.
        """
        self._check(start, stop)
        return self._block(np.arange(start, stop)).reshape(-1)

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
        """Pickle what cannot be rebuilt (see :func:`uncached_state`)."""
        return uncached_state(self)

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name} size={self._size}>"
