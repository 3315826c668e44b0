"""Affinity Scheduling (Markatos & LeBlanc 1994) -- paper reference [12].

The paper's introduction cites affinity scheduling as part of the loop
scheduling literature it builds on; it is implemented here as an extra
decentralized baseline alongside TreeS.  The algorithm:

* every PE starts with a *local queue* of ``I/p`` contiguous
  iterations (weighted by virtual power in the heterogeneous variant);
* a PE repeatedly takes ``ceil(local/k)`` iterations from the front of
  its own queue (``k = p`` in the original), computing them before
  taking the next slice -- large early takes, shrinking later ones,
  like a per-PE GSS;
* when its queue is empty it finds the **most loaded** PE and steals
  ``ceil(victim/p)`` iterations from the *back* of that queue.

Differences from TreeS: steal victims are chosen by load (global view),
not by a fixed partner list, and the self-serve slice shrinks
geometrically instead of being the whole block.  Everything else --
flushes to the master at fixed epochs, the steal round trip, the final
flush, fail-stop recovery -- is the TreeS engine's.
"""

from __future__ import annotations

import math
from typing import Optional

from ..workloads import Workload
from .cluster import ClusterSpec
from .metrics import SimResult
from .tree_engine import TreeSimulation, _TreeWorker

__all__ = ["AffinitySimulation", "simulate_affinity"]


class AffinitySimulation(TreeSimulation):
    """Affinity scheduling as a policy on the TreeS engine.

    Overrides the *take* rule (geometric self-serve slices) and the
    *steal* rule (most-loaded victim, ``1/p`` of its remainder);
    nothing else.
    """

    def __init__(
        self,
        workload: Workload,
        cluster: ClusterSpec,
        weighted: bool = False,
        flush_interval: float = 2.0,
        min_steal: int = 2,
        collect_results: bool = False,
    ) -> None:
        # Affinity's own slice rule replaces the fixed grain.
        super().__init__(
            workload,
            cluster,
            weighted=weighted,
            flush_interval=flush_interval,
            grain=1,
            min_steal=min_steal,
            collect_results=collect_results,
        )

    def _slice(self, w: _TreeWorker) -> int:
        """``ceil(remaining / p)``: a PE's share of ``w``'s queue."""
        return max(1, math.ceil(w.remaining() / self.cluster.size))

    def _next_block(self, w: _TreeWorker) -> Optional[tuple[int, int]]:
        return w.pop_block(self._slice(w))

    def _pick_victim(self, w: _TreeWorker) -> Optional[_TreeWorker]:
        # A dead PE cannot refuse, however little it has left.
        victims = [
            v for v in self.workers
            if v.index != w.index
            and v.remaining() >= (1 if v.dead else self.min_steal)
        ]
        if not victims:
            return None
        return max(victims, key=lambda v: v.remaining())

    def _share(self, victim: _TreeWorker) -> Optional[tuple[int, int]]:
        want = self._slice(victim)
        stolen = victim.steal_half(self.min_steal)
        if stolen is None:
            return None  # raced with the victim; the thief tries again
        # steal_half takes back ~half; trim to the affinity share
        # (1/p) by returning the surplus front part to the victim.
        lo, hi = stolen
        if hi - lo > want:
            victim.ranges.append([lo, hi - want])
            lo = hi - want
        return lo, hi

    def _label(self) -> tuple[str, int]:
        return "AS" + ("-w" if self.weighted else ""), self._steals


def simulate_affinity(
    workload: Workload,
    cluster: ClusterSpec,
    weighted: bool = False,
    flush_interval: float = 2.0,
    min_steal: int = 2,
    collect_results: bool = False,
) -> SimResult:
    """Simulate one affinity-scheduling run (see
    :class:`AffinitySimulation`)."""
    return AffinitySimulation(
        workload,
        cluster,
        weighted=weighted,
        flush_interval=flush_interval,
        min_steal=min_steal,
        collect_results=collect_results,
    ).run()
