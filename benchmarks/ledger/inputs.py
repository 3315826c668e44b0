"""Seed -> inputs.  ``src/`` sees only what this module generates.

Every workload runs a fixed number of identical *passes*; a pass is a
fixed list of distinct jobs (``SimJob`` for the sweeps, wire specs for
the service).  The seed perturbs what a user's inputs vary in without
changing how much work a pass is: per-node speed and virtual power get
a small jitter, fault plans and random load traces draw their seeds
from it, service spec parameters are drawn from it, and the job order
is shuffled by it.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Optional

from repro import SimJob
from repro.chaos import FaultPlan
from repro.experiments.config import paper_workload, speedup_configuration
from repro.service.jobs import job_from_spec
from repro.simulation import ClusterSpec
from repro.simulation.loadgen import RandomLoad

WORKLOADS = (
    "sweep_fast", "sweep_observed", "sweep_des", "sweep_fanout",
    "service_small", "service_heavy",
)

#: The benchmark window of benchmarks/conftest.py.
WIDTH, HEIGHT = 1000, 500

MASTER_SCHEMES = (
    "S", "BC", "SS", "CSS(4)", "GSS", "TSS", "FSS", "FISS", "TFSS",
    "WF", "DTSS", "DFSS", "DFISS", "DTFSS",
)
DECENTRAL_SCHEMES = ("SS", "CSS(4)", "GSS", "TSS", "FSS", "FISS", "TFSS")

SPEED_JITTER = 0.02
POWER_JITTER = 0.05

#: Virtual seconds a p-PE run of ``W`` lasts, roughly: where a random
#: fault plan has to land to perturb the run.
_HORIZON = {4: 20.0, 8: 12.0}

#: Specs per pass.
SMALL_SPECS = 100
HEAVY_SPECS = 30
AUX_SPECS = 16


@dataclasses.dataclass
class Inputs(object):
    """What one workload runs, plus what the layer replays borrow."""

    workload: str
    seed: int
    w: object                   # the Mandelbrot loop ``W``
    jobs: list                  # one pass of SimJobs (sim-layer inputs)
    specs: list                 # one pass of wire specs (service inputs)

    @property
    def service(self) -> bool:
        return self.workload.startswith("service_")

    def ops_per_pass(self) -> int:
        return len(self.specs) if self.service else len(self.jobs)


def make_w():
    """``W``: the reordered Mandelbrot loop at the bench window."""
    return paper_workload(width=WIDTH, height=HEIGHT)


def _jittered(cluster: ClusterSpec, rng: random.Random, **node_extra):
    nodes = [
        dataclasses.replace(
            node,
            speed=node.speed * (1.0 + rng.uniform(-SPEED_JITTER,
                                                  SPEED_JITTER)),
            virtual_power=node.virtual_power
            * (1.0 + rng.uniform(-POWER_JITTER, POWER_JITTER)),
            **node_extra,
        )
        for node in cluster.nodes
    ]
    return dataclasses.replace(cluster, nodes=nodes)


def _clusters(w, rng: random.Random) -> dict:
    return {
        (p, ded): _jittered(speedup_configuration(w, p, ded), rng)
        for p in (1, 2, 4, 8)
        for ded in (True, False)
    }


def grid_jobs(w, rng: random.Random, collect_events: bool = False):
    """``G``: registry x engines x p x dedicated = 168 jobs."""
    jobs = []
    for (p, ded), cluster in _clusters(w, rng).items():
        tag = f"p={p}/{'ded' if ded else 'non'}"
        for engine, schemes in (("master", MASTER_SCHEMES),
                                ("decentral", DECENTRAL_SCHEMES)):
            for scheme in schemes:
                jobs.append(SimJob(
                    scheme, w, cluster, engine=engine,
                    tag=f"{engine}/{scheme}/{tag}",
                    collect_events=collect_events,
                ))
    rng.shuffle(jobs)
    return jobs


def des_jobs(w, rng: random.Random):
    """24 jobs the fast path refuses by nature."""
    clusters = _clusters(w, rng)
    jobs = []

    def plan(p: int) -> FaultPlan:
        return FaultPlan.random(
            rng.randrange(2 ** 31), workers=p, horizon=_HORIZON[p]
        )

    def add(kind, scheme, cluster, engine="master", **params):
        jobs.append(SimJob(
            scheme, w, cluster, engine=engine, params=params,
            tag=f"{kind}/{engine}/{scheme}/{len(jobs)}",
        ))

    # Three cost classes of eight, so that the median and the 95th
    # percentile of job latency each fall inside a class, not on the
    # gap between two: short ladders (< 3 ms a run), CSS(k) ladders
    # graded by k (3-6 ms), tree and adaptive runs (6-11 ms).
    for scheme, p, ded in (
        ("TSS", 4, True), ("FSS", 8, False), ("DTSS", 8, False),
        ("TFSS", 4, False), ("CSS(4)", 8, True), ("CSS(5)", 4, False),
        ("CSS(6)", 8, False),
    ):
        add("chaos", scheme, clusters[p, ded], chaos=plan(p))
    for scheme, p, ded in (
        ("TSS", 4, False), ("GSS", 4, True), ("CSS(3)", 8, True),
        ("CSS(4)", 4, True), ("CSS(5)", 8, False),
    ):
        add("chaos", scheme, clusters[p, ded], engine="decentral",
            chaos=plan(p))
    for weighted, p, chaotic in (
        (False, 4, False), (False, 8, False), (True, 4, False),
        (True, 8, False), (False, 8, True), (True, 8, True),
    ):
        extra = {"chaos": plan(p)} if chaotic else {}
        add("tree", "TreeS", clusters[p, not weighted], engine="tree",
            weighted=weighted, **extra)
    for spec, ded in (
        ("adaptive:TSS+FSS+GSS+TFSS@8", True),
        ("adaptive:TSS+FSS@8", False),
    ):
        add("adaptive", spec, clusters[4, ded])
    # A year-2001 hub: every PE of the cluster shares one segment, and
    # one PE's run queue follows a random load trace.
    for scheme, p, ded in (
        ("FSS", 8, False), ("DTSS", 8, True), ("CSS(4)", 4, True),
        ("CSS(6)", 8, True),
    ):
        shared = _jittered(clusters[p, ded], rng, segment="hub0")
        shared.nodes[-1] = dataclasses.replace(
            shared.nodes[-1],
            load=RandomLoad(seed=rng.randrange(2 ** 31),
                            arrival_rate=0.2, mean_duration=2.0),
        )
        add("segment", scheme, shared)
    rng.shuffle(jobs)
    return jobs


def small_specs(rng: random.Random, count: int) -> list:
    """Tiny jobs: the daemon's fixed per-job overhead dominates.

    Sizes, schemes and worker counts are each a shuffled even spread,
    not independent draws: the seed decides which job gets which, the
    pass as a whole is the same amount of work for every seed.
    """
    def spread(values) -> list:
        out = [values[i * len(values) // count] for i in range(count)]
        rng.shuffle(out)
        return out

    sizes = spread(range(100, 200))
    schemes = spread(("TSS", "FSS", "GSS", "TFSS"))
    workers = spread((2, 3, 4))
    return [
        {
            "scheme": schemes[i],
            "workload": {
                "kind": "linear",
                "size": sizes[i],
                "slope": round(rng.uniform(0.5, 2.0), 3),
            },
            "cluster": {"workers": workers[i]},
            "tag": f"small/{i}",
        }
        for i in range(count)
    ]


def heavy_specs(rng: random.Random, count: int) -> list:
    """Chunk-heavy jobs on ``W``: SS ~4000 events, CSS(4) ~1000,
    CSS(8) ~500; every fourth ships its trace back."""
    specs = []
    for i in range(count):
        workers = rng.randint(2, 4)
        spec = {
            "scheme": ("SS", "CSS(4)", "CSS(8)")[i % 3],
            "workload": {"kind": "mandelbrot", "width": WIDTH,
                         "height": HEIGHT, "sf": 4},
            "cluster": {"nodes": [
                {"name": f"n{k}",
                 "speed": 1e5 * (1.0 + rng.uniform(-SPEED_JITTER,
                                                   SPEED_JITTER))}
                for k in range(workers)
            ]},
            "tag": f"heavy/{i}",
        }
        # i % 3 picks the scheme, so step the trace flag by 4 to put
        # it on every scheme in turn.
        if i % 4 == 0:
            spec["trace"] = True
        specs.append(spec)
    rng.shuffle(specs)
    return specs


def make_inputs(workload: str, seed: int, w: Optional[object] = None
                ) -> Inputs:
    """The inputs of one workload for one seed (same seed, same
    inputs).  ``w`` may be passed so repeated set-ups can each resolve
    a fresh ``W`` against their own cold cache."""
    if workload not in WORKLOADS:
        raise ValueError(
            f"unknown workload {workload!r}; one of {', '.join(WORKLOADS)}"
        )
    rng = random.Random(f"ledger/{workload}/{seed}")
    w = w if w is not None else make_w()
    if workload == "service_small":
        specs = small_specs(rng, SMALL_SPECS)
    elif workload == "service_heavy":
        specs = heavy_specs(rng, HEAVY_SPECS)
    else:
        specs = small_specs(rng, AUX_SPECS)
    if workload == "sweep_des":
        jobs = des_jobs(w, rng)
    elif workload == "sweep_observed":
        jobs = grid_jobs(w, rng, collect_events=True)
    elif workload in ("sweep_fast", "sweep_fanout"):
        jobs = grid_jobs(w, rng)
    else:
        jobs = [job_from_spec(spec) for spec in specs]
    return Inputs(workload=workload, seed=seed, w=w, jobs=jobs,
                  specs=specs)
