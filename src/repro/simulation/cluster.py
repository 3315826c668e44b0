"""Cluster description: nodes, links, master -- the simulated testbed.

The paper's testbed was 9 Sun workstations: a master (UltraSPARC 10,
440 MHz), three fast slaves (UltraSPARC 10, 440 MHz, 100 Mb/s links)
and five slow slaves (UltraSPARC 1, 166 MHz, 10 Mb/s links).  A
:class:`ClusterSpec` captures exactly the properties self-scheduling
behaviour depends on:

* per-node compute **speed** (basic operations per second of virtual
  time) and **virtual power** ``V_i`` (speed relative to the slowest
  node -- derived automatically unless overridden);
* per-node **link** latency and bandwidth (master <-> slave);
* per-node **load trace** (run-queue length over time, nondedicated
  mode);
* master **service time** per request (the scheduling/reply overhead
  that makes the master a contended resource).

:func:`repro.experiments.config.paper_cluster` instantiates the paper's
machine mix; this module is generic.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from .events import SimulationError
from .loadgen import ConstantLoad, LoadTrace

__all__ = ["NodeSpec", "ClusterSpec"]


@dataclasses.dataclass
class NodeSpec(object):
    """One slave PE and its link to the master.

    ``fails_at`` injects a fail-stop fault: the PE dies at that virtual
    time, any chunk whose results have not yet reached the master is
    lost, and the engine reassigns it to the survivors (failure beyond
    the paper -- the testable counterpart of the runtime's worker-death
    requeue).
    """

    name: str
    speed: float  # basic ops / second (dedicated)
    latency: float = 1e-3  # seconds, one-way message latency
    bandwidth: float = 1.25e6  # bytes / second (10 Mb/s default)
    load: LoadTrace = dataclasses.field(default_factory=ConstantLoad)
    virtual_power: Optional[float] = None  # None: ClusterSpec derives V
    fails_at: Optional[float] = None  # fail-stop time (None = reliable)
    #: Shared-medium LAN segment id.  Nodes sharing a segment contend
    #: for it: their transfers serialize, like hosts on a year-2001
    #: 10 Mb/s hub (vs the default ``None`` = switched, dedicated
    #: link).  Master-engine transfers honour this.
    segment: Optional[str] = None

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise SimulationError(f"{self.name}: speed must be > 0")
        if self.latency < 0:
            raise SimulationError(f"{self.name}: latency must be >= 0")
        if self.bandwidth <= 0:
            raise SimulationError(f"{self.name}: bandwidth must be > 0")
        if self.virtual_power is not None and self.virtual_power <= 0:
            raise SimulationError(
                f"{self.name}: virtual_power must be > 0"
            )
        if self.fails_at is not None and self.fails_at < 0:
            raise SimulationError(
                f"{self.name}: fails_at must be >= 0"
            )

    def transfer_time(self, nbytes: float) -> float:
        """One-way time to move ``nbytes`` over this node's link."""
        if nbytes < 0:
            raise SimulationError(f"nbytes must be >= 0, got {nbytes}")
        return self.latency + nbytes / self.bandwidth


@dataclasses.dataclass
class ClusterSpec(object):
    """The full simulated system: slaves + master message costs.

    ``request_bytes``/``reply_bytes`` size the control messages;
    ``result_bytes_per_item`` sizes the piggy-backed results (the paper
    piggy-backs each chunk's results onto the next request).
    ``master_service`` is the master's per-request occupancy -- requests
    arriving while it is busy queue FIFO, which reproduces the
    master-contention effects the paper discusses.
    """

    nodes: list[NodeSpec]
    master_service: float = 2e-4  # seconds per serviced request
    request_bytes: float = 64.0
    reply_bytes: float = 32.0
    result_bytes_per_item: float = 8.0
    #: Master NIC inbound bandwidth (bytes/s).  All payloads arriving at
    #: the master serialize through this single resource -- the paper's
    #: "contend for master access" effect (Sec. 5): result collection is
    #: a bottleneck no matter which slave link carried the data.
    master_bandwidth: float = 1.25e7

    def __post_init__(self) -> None:
        if not self.nodes:
            raise SimulationError("cluster needs at least one slave node")
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise SimulationError(f"duplicate node names: {names}")
        if self.master_service < 0:
            raise SimulationError("master_service must be >= 0")
        if self.master_bandwidth <= 0:
            raise SimulationError("master_bandwidth must be > 0")
        if self.request_bytes < 0 or self.reply_bytes < 0 \
                or self.result_bytes_per_item < 0:
            raise SimulationError("message sizes must be >= 0")

    @property
    def size(self) -> int:
        """Number of slave PEs ``p``."""
        return len(self.nodes)

    def virtual_powers(self) -> list[float]:
        """``V_i`` per node: the node's own ``virtual_power`` when set,
        else its speed relative to this cluster's slowest node (1.0 for
        the slowest).

        The one place V is derived.  V is relative to the cluster, so it
        is computed here and never written back: the nodes are the
        caller's, and one node may sit in several clusters.
        """
        slowest = min(node.speed for node in self.nodes)
        return [
            node.speed / slowest if node.virtual_power is None
            else float(node.virtual_power)
            for node in self.nodes
        ]

    def subset(self, indices: Sequence[int]) -> "ClusterSpec":
        """A cluster containing only the selected slaves.

        Virtual powers are recomputed relative to the new slowest node
        (the paper's speedup configurations use different machine mixes
        per ``p``).
        """
        if not indices:
            raise SimulationError("subset must keep at least one node")
        picked = []
        for i in indices:
            node = self.nodes[i]
            picked.append(dataclasses.replace(node, virtual_power=None))
        return dataclasses.replace(self, nodes=picked)
