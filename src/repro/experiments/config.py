"""The paper's experimental setup, reconstructed.

Testbed (paper Sec. 5.1): one master (Sun UltraSPARC 10, 440 MHz) plus
eight slaves -- three fast (UltraSPARC 10, 440 MHz, 100 Mb/s links) and
five slow (UltraSPARC 1, 166 MHz, 10 Mb/s links).  The paper's Figure 6
caption treats fast ~= 3x slow ("The fast PEs are about 3 times faster
than slow ones"), which we adopt as the speed ratio.

Time calibration: absolute speeds are not the paper's point -- speedup
and the T_com/T_wait/T_comp decomposition are.  We pin the virtual
timescale by choosing the fast-PE speed so that a *serial dedicated run
on one fast PE* takes ``serial_seconds`` (default 60 s, which puts the
p=8 ``T_p`` values in the paper's 13-48 s ballpark).  That makes every
table comparable to the paper at any Mandelbrot window size.

Speedup configurations (paper Sec. 5.1/6.1):

====  =======================  ==========================================
p     machines                 nondedicated overload (Q=3: 2 extra procs)
====  =======================  ==========================================
1     1 fast                   the fast slave
2     1 fast + 1 slow          both
4     2 fast + 2 slow          1 fast + 1 slow
8     3 fast + 5 slow          1 fast + 3 slow
====  =======================  ==========================================

(The paper's p=2 nondedicated text says "1 fast and 1 slow slave" --
with only two slaves present, both are overloaded.)
"""

from __future__ import annotations

from ..simulation import ClusterSpec, ConstantLoad, NodeSpec
from ..workloads import MandelbrotWorkload, ReorderedWorkload, Workload

__all__ = [
    "FAST_SLOW_RATIO",
    "OVERLOAD_Q",
    "paper_workload",
    "paper_cluster",
    "speedup_configuration",
    "overload_pattern",
]

#: Fast/slow PE speed ratio (paper Fig. 6: "about 3 times faster").
FAST_SLOW_RATIO = 3.0

#: Effective run-queue length of an overloaded slave.  The paper starts
#: two matrix-add stressors per overloaded machine (nominally Q = 3),
#: but repeatedly adding 1000x1000 matrices is memory-bandwidth-bound on
#: an UltraSPARC, so the loop process's CPU share is larger than 1/3;
#: the paper's Table 2 degradation (+60..70% T_p for the staged simple
#: schemes) calibrates to an effective Q of 2.
OVERLOAD_Q = 2

#: Link speeds (paper Sec. 5.1): 100 Mb/s fast, 10 Mb/s slow.
FAST_BANDWIDTH = 1.25e7  # bytes/s
SLOW_BANDWIDTH = 1.25e6  # bytes/s
LAN_LATENCY = 1e-3  # seconds

#: Master scheduling/reply overhead per request.
MASTER_SERVICE = 1e-3  # seconds

#: Total result volume of the paper's run: 4000 x 2000 pixels at
#: 4 bytes each (~32 MB), spread over the loop's tasks by default.
PAPER_RESULT_BYTES = 4000 * 2000 * 4.0


def paper_workload(
    width: int = 4000,
    height: int = 2000,
    max_iter: int = 64,
    sf: int = 4,
) -> Workload:
    """The paper's Mandelbrot loop: ``width x height`` window, one task
    per column, reordered with sampling frequency ``sf`` (paper: 4)."""
    inner = MandelbrotWorkload(width, height, max_iter=max_iter)
    return ReorderedWorkload(inner, sf=sf) if sf > 1 else inner


def _node(
    kind: str, index: int, overloaded: bool, slow_speed: float
) -> NodeSpec:
    fast = kind == "fast"
    return NodeSpec(
        name=f"{kind}{index}",
        speed=slow_speed * FAST_SLOW_RATIO if fast else slow_speed,
        latency=LAN_LATENCY,
        bandwidth=FAST_BANDWIDTH if fast else SLOW_BANDWIDTH,
        load=ConstantLoad(OVERLOAD_Q if overloaded else 1),
        virtual_power=FAST_SLOW_RATIO if fast else 1.0,
    )


def alternating_cluster(p: int, master_service: float) -> ClusterSpec:
    """A heterogeneous p-node cluster in the paper's fast/slow mix.

    Speeds alternate ~440:166 (the testbed's UltraSPARC 10 vs 1
    ratio); absolute scale puts makespans in single-digit seconds so
    millisecond-level dispatch costs are visible but not dominant.
    The decentral and adaptive sweeps differ only in the master's
    per-request ``master_service``.
    """
    nodes = [
        NodeSpec(
            name=f"pe{i}",
            speed=4.4e4 if i % 2 == 0 else 1.66e4,
            latency=1e-4,
            bandwidth=1.25e6,
        )
        for i in range(p)
    ]
    return ClusterSpec(nodes=nodes, master_service=master_service)


def paper_cluster(
    workload: Workload,
    n_fast: int = 3,
    n_slow: int = 5,
    overloaded: tuple[int, ...] = (),
    serial_seconds: float = 60.0,
    result_bytes_per_item: float | None = None,
) -> ClusterSpec:
    """A paper-style cluster sized to ``workload``.

    ``overloaded`` lists 0-based slave indices running the two matrix-
    add stressors (fast slaves come first).  ``result_bytes_per_item``
    defaults to the *paper-equivalent* data volume: the real experiment
    moves ``4000 x 2000`` pixels (~32 MB at 4 B each) through the
    master, so the default spreads 32 MB over ``workload.size`` tasks.
    A scaled-down window therefore keeps the paper's communication-to-
    computation balance instead of making communication artificially
    free.
    """
    if n_fast < 0 or n_slow < 0 or n_fast + n_slow < 1:
        raise ValueError(f"bad machine mix: {n_fast} fast + {n_slow} slow")
    total_cost = workload.total_cost()
    fast_speed = (total_cost / serial_seconds) if total_cost else 1.0
    slow_speed = fast_speed / FAST_SLOW_RATIO
    nodes = []
    for i in range(n_fast):
        nodes.append(_node("fast", i + 1, i in overloaded, slow_speed))
    for j in range(n_slow):
        idx = n_fast + j
        nodes.append(_node("slow", j + 1, idx in overloaded, slow_speed))
    if result_bytes_per_item is None:
        result_bytes_per_item = (
            PAPER_RESULT_BYTES / workload.size if workload.size else 0.0
        )
    return ClusterSpec(
        nodes=nodes,
        master_service=MASTER_SERVICE,
        result_bytes_per_item=result_bytes_per_item,
    )


#: machine mixes per p for the speedup figures: (n_fast, n_slow).
_MIXES: dict[int, tuple[int, int]] = {
    1: (1, 0),
    2: (1, 1),
    4: (2, 2),
    8: (3, 5),
}

#: 0-based overloaded slave indices per p (nondedicated runs).  For
#: p=8 the paper's Table 2 points at PE1 (fast) and PE4/PE7/PE8 (slow):
#: those rows carry the inflated T_comp.
_OVERLOADS: dict[int, tuple[int, ...]] = {
    1: (0,),
    2: (0, 1),
    4: (0, 2),
    8: (0, 3, 6, 7),
}


def overload_pattern(p: int) -> tuple[int, ...]:
    """The paper's overloaded-slave indices for a given ``p``."""
    if p not in _OVERLOADS:
        raise ValueError(f"p must be one of {sorted(_OVERLOADS)}, got {p}")
    return _OVERLOADS[p]


def speedup_configuration(
    workload: Workload,
    p: int,
    dedicated: bool = True,
    serial_seconds: float = 60.0,
) -> ClusterSpec:
    """Cluster for one point of Figures 4-7 (p in {1, 2, 4, 8})."""
    if p not in _MIXES:
        raise ValueError(f"p must be one of {sorted(_MIXES)}, got {p}")
    n_fast, n_slow = _MIXES[p]
    overloaded = () if dedicated else overload_pattern(p)
    return paper_cluster(
        workload,
        n_fast=n_fast,
        n_slow=n_slow,
        overloaded=overloaded,
        serial_seconds=serial_seconds,
    )
