"""Command-line entry point: regenerate any paper artifact.

Usage (installed as ``repro-experiments`` or via
``python -m repro.experiments.runner``)::

    repro-experiments table1
    repro-experiments table2 --width 1000 --height 500
    repro-experiments table3
    repro-experiments figures            # figures 4-7
    repro-experiments fig1               # workload profile series
    repro-experiments fig2               # ASCII fractal
    repro-experiments all                # every artifact, one workload
    repro-experiments figures --jobs 0   # fan out over all cores
    repro-experiments trace-report --chrome-out trace.json
    repro-experiments trace-report --trace run.jsonl   # audit a file

``--log-level debug`` (or ``REPRO_LOG_LEVEL``) raises the structured
logging threshold for every artifact; the artifact text itself always
goes to stdout, log records to stderr.

``--width/--height`` scale the Mandelbrot window (the virtual timescale
is calibrated, so smaller windows reproduce the same table shapes
faster); ``--serial-seconds`` moves the calibration point.

Performance flags (see ``docs/performance.md``): ``--jobs N`` fans the
independent simulations of an artifact across ``N`` processes (``0`` =
all cores; default ``1`` = in-process serial, bit-identical either
way); ``--cache-dir`` relocates the persistent cost-profile cache;
``--no-cache`` disables it for this invocation.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, NamedTuple, Optional, Sequence

from .. import cache
from . import (
    ablations,
    adaptive_sweep,
    decentral_sweep,
    figures,
    replicate,
    table1,
    table2,
    table3,
    validation,
    windows,
)

__all__ = ["main", "build_parser", "ARTIFACTS", "ALL_ARTIFACTS"]


def _scheme_arg(text: str) -> str:
    """Validate ``--scheme`` against the registry, inline params included.

    Errors carry the registry's own name list, so a typo'd scheme fails
    at parse time with the full menu instead of deep inside an artifact.
    """
    from ..core import registry
    from ..core.base import SchemeError

    try:
        registry.parse(text)
    except SchemeError:
        known = ", ".join(registry.names())
        raise argparse.ArgumentTypeError(
            f"unknown scheme {text!r}; known schemes: {known} "
            "(CSS/GSS/BC/FISS/DFISS also accept an inline parameter, "
            "e.g. CSS(32))"
        )
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the tables and figures of 'A Class of Loop "
            "Self-Scheduling for Heterogeneous Clusters' (CLUSTER 2001)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=[*ARTIFACTS, "all"],
        help="which artifact to regenerate",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="verify-chaos / adaptive-sweep: seed for the random "
             "fault plan",
    )
    parser.add_argument(
        "--scheme", default="DTSS", type=_scheme_arg,
        help="verify-chaos: scheme to run under the fault plan "
             "(any registry name, e.g. TSS, DTSS, CSS(32))",
    )
    parser.add_argument(
        "--no-runtime", action="store_true",
        help="verify-chaos: skip the real-process leg (simulators only)",
    )
    parser.add_argument(
        "--width", type=int, default=2000,
        help="Mandelbrot window width / loop size I (paper: 4000)",
    )
    parser.add_argument(
        "--height", type=int, default=1000,
        help="Mandelbrot window height (paper: 2000)",
    )
    parser.add_argument(
        "--serial-seconds", type=float, default=60.0,
        help="calibrated serial time on one fast PE (virtual seconds)",
    )
    parser.add_argument(
        "--sf", type=int, default=4,
        help="loop-reordering sampling frequency (paper: 4)",
    )
    def nonneg(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(
                "must be >= 0 (0 = all cores)"
            )
        return value

    parser.add_argument(
        "--jobs", type=nonneg, default=1, metavar="N",
        help="processes for independent simulations (0 = all cores; "
             "default 1 = serial, results are identical either way)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cost-profile cache directory (default: $REPRO_CACHE_DIR "
             "or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent cost-profile cache",
    )
    parser.add_argument(
        "--no-fast", action="store_true",
        help="force the generic DES engines for every simulation "
             "(disable the analytic fast path; see docs/performance.md)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="trace-report: audit and summarize an existing JSONL "
             "trace instead of running the seeded demo scenario",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="trace-report: write the event stream as JSONL",
    )
    parser.add_argument(
        "--chrome-out", default=None, metavar="PATH",
        help="trace-report: write a Chrome/Perfetto trace "
             "(load via ui.perfetto.dev or chrome://tracing)",
    )
    parser.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        help="structured-logging threshold (debug/info/warning/error; "
             "default: $REPRO_LOG_LEVEL or warning)",
    )
    return parser


def _figures_report(args: argparse.Namespace, workload=None) -> str:
    parts = []
    from ..analysis import line_chart

    for fig in (figures.figure4, figures.figure5, figures.figure6,
                figures.figure7):
        result = fig(
            workload=workload,
            width=args.width,
            height=args.height,
            serial_seconds=args.serial_seconds,
            n_jobs=args.jobs,
        )
        parts.append(result.report())
        parts.append("")
        parts.append(
            line_chart(
                {
                    name: [(p, sp) for p, _t, sp in pts]
                    for name, pts in result.series.items()
                },
                width=56,
                height=12,
                y_label="S_p",
            )
        )
        parts.append("")
    return "\n".join(parts)


def _schemes_report(args=None, workload=None) -> str:
    """Every registered scheme with its class and default parameters."""
    from ..core import make, names

    lines = ["Registered schemes (defaults at I=1000, p=4):", ""]
    for name in names():
        info = make(name, 1000, 4).describe()
        params = ", ".join(
            f"{k}={v}" for k, v in sorted(info["params"].items())
        )
        kind = "distributed" if info["distributed"] else "simple"
        lines.append(
            f"  {name:6s} {info['class']:40s} [{kind}]"
            + (f"  {params}" if params else "")
        )
    lines.append("")
    lines.append("TreeS is decentralized: use simulate_tree().")
    lines.append("")
    lines.extend(_adaptive_grammar_lines())
    return "\n".join(lines)


def _adaptive_grammar_lines() -> list[str]:
    """The ``adaptive:`` spec grammar section of the schemes report."""
    from ..adaptive import DEFAULT_CANDIDATES

    return [
        "Adaptive specs (meta-scheduler; accepted anywhere a scheme "
        "name is):",
        "",
        "  adaptive[:CAND[+CAND...]][@STAGES]",
        "",
        "    CAND    candidate scheme name from the registry above",
        f"            (default pool: {'+'.join(DEFAULT_CANDIDATES)})",
        "    STAGES  number of scheduling stages the loop is split",
        "            into (positive integer; default: number of",
        "            candidates + 3)",
        "",
        "  examples:",
        "    adaptive                  default candidates, 8 stages",
        "    adaptive:TSS+FSS          choose between TSS and FSS",
        "    adaptive:TSS+FSS@8        ... re-deciding across 8 stages",
        "    adaptive:GSS@4            retune GSS only, 4 stages",
    ]


def _gantt_report(args: argparse.Namespace, workload=None) -> str:
    """Per-PE busy timelines for one simple and one distributed run."""
    from ..analysis import gantt_chart
    from ..simulation import simulate
    from .config import paper_cluster, paper_workload

    wl = workload if workload is not None else paper_workload(
        width=args.width, height=args.height
    )
    parts = ["Per-PE timelines (the Table 2 vs Table 3 story at a "
             "glance):", ""]
    horizon = 0.0
    results = []
    for scheme in ("TSS", "DTSS"):
        res = simulate(scheme, wl, paper_cluster(
            wl, serial_seconds=args.serial_seconds
        ))
        results.append(res)
        horizon = max(horizon, res.t_p)
    for res in results:
        parts.append(gantt_chart(res, until=horizon))
        parts.append("")
    return "\n".join(parts)


def _fig1_report(args: argparse.Namespace, workload=None) -> str:
    data = figures.figure1(width=min(args.width, 1200),
                           height=min(args.height, 1200), sf=args.sf)
    orig, reord = data["original"], data["reordered"]
    lines = [
        "Figure 1 -- Mandelbrot per-column basic computations",
        f"  columns: {orig.size}",
        f"  original : min={orig.min():.0f} max={orig.max():.0f} "
        f"mean={orig.mean():.0f}",
        f"  reordered (S_f={args.sf}): same multiset, striped order",
    ]
    # A coarse profile: block means over 16 blocks, showing the
    # smoothing effect of reordering on contiguous chunks.
    import numpy as np

    def blocks(v):
        return [f"{b.mean():7.0f}" for b in np.array_split(v, 16)]

    lines.append("  16-block means, original : " + " ".join(blocks(orig)))
    lines.append("  16-block means, reordered: " + " ".join(blocks(reord)))
    return "\n".join(lines)


def _verify_chaos_report(
    args: argparse.Namespace, workload=None
) -> tuple[str, bool]:
    """Drive one seeded fault plan through every substrate and audit it.

    Returns ``(report_text, ok)``.  The plan is generated once from
    ``--seed`` on a unit horizon and mapped onto each substrate's
    timescale with :meth:`FaultPlan.scaled` -- same faults, same order,
    same relative times.  A run passes when the trace auditor finds no
    invariant violation and the final results are bit-identical to the
    serial execution (hence across substrates).
    """
    import numpy as np

    from ..chaos import FaultPlan
    from ..simulation import SimulationError, simulate, simulate_tree
    from ..verify import audit_run, audit_sim
    from .config import paper_cluster, paper_workload

    wl = paper_workload(
        width=min(args.width, 400), height=min(args.height, 200)
    )
    cluster = paper_cluster(wl, serial_seconds=args.serial_seconds)
    n_workers = min(cluster.size, 3)
    plan = FaultPlan.random(args.seed, workers=n_workers, horizon=1.0)
    serial = wl.execute_serial()
    lines = [
        "verify-chaos -- seeded fault plan, audited on every substrate",
        f"  seed={args.seed}  scheme={args.scheme}  loop size={wl.size}",
        "",
        plan.summary(),
        "",
    ]
    ok = True

    def record(label: str, report, results) -> None:
        nonlocal ok
        identical = results is not None and np.array_equal(results, serial)
        passed = report.ok and identical
        ok = ok and passed
        lines.append(f"  [{'PASS' if passed else 'FAIL'}] {label}: "
                     f"{len(report.checks)} checks, "
                     f"results {'bit-identical to serial' if identical else 'DIVERGE'}")
        lines.extend(f"         {v}" for v in report.violations)

    clean = simulate(args.scheme, wl, cluster)
    sim = simulate(
        args.scheme, wl, cluster,
        chaos=plan.scaled(0.5 * clean.t_p), collect_results=True,
    )
    record("master-slave simulator",
           audit_sim(sim, wl.size, scheme=args.scheme), sim.results)

    tree_clean = simulate_tree(wl, cluster)
    try:
        tree = simulate_tree(
            wl, cluster,
            chaos=plan.scaled(0.5 * tree_clean.t_p), collect_results=True,
        )
        record("TreeS simulator", audit_sim(tree, wl.size), tree.results)
    except SimulationError as exc:
        # A documented unrecoverable case (docs/fault_model.md): the
        # plan killed a PE holding unflushed results after every
        # survivor finished.  Detected and reported, not silent.
        lines.append(f"  [SKIP] TreeS simulator: unrecoverable plan "
                     f"({exc})")

    # The decentral substrate only takes the decentralizable schemes
    # (pure chunk calculators); fall back to TSS when --scheme is a
    # distributed/master-only one.
    from ..core import registry
    from ..decentral import DECENTRAL_SCHEMES, run_decentral, simulate_decentral

    dec_scheme = args.scheme
    if registry.parse(dec_scheme)[0] not in DECENTRAL_SCHEMES:
        dec_scheme = "TSS"
    dec_sim = simulate_decentral(
        dec_scheme, wl, cluster,
        chaos=plan.scaled(0.5 * clean.t_p), collect_results=True,
    )
    record(f"decentral simulator ({dec_scheme})",
           audit_sim(dec_sim, wl.size, scheme=dec_scheme),
           dec_sim.results)

    if not args.no_runtime:
        from ..runtime import plan_time_scale, run_parallel

        time_scale = plan_time_scale(wl, n_workers)
        run = run_parallel(
            args.scheme, wl, n_workers, plan=plan,
            time_scale=time_scale,
        )
        record(
            "multiprocessing runtime",
            audit_run(run, workload=wl, scheme=args.scheme,
                      workers=n_workers),
            run.results,
        )
        dec_run = run_decentral(
            dec_scheme, wl, n_workers, plan=plan, time_scale=time_scale,
        )
        record(
            f"decentral runtime ({dec_scheme})",
            audit_run(dec_run, wl.size, workers=n_workers, workload=wl),
            dec_run.results,
        )

    lines.append("")
    lines.append("plan JSON (replayable via FaultPlan.from_json):")
    import json

    lines.append("  " + json.dumps(plan.to_json()))
    lines.append("")
    lines.append("verify-chaos: " + ("ALL SUBSTRATES CLEAN" if ok
                                     else "VIOLATIONS FOUND"))
    return "\n".join(lines), ok


def _trace_report(
    args: argparse.Namespace, workload=None
) -> tuple[str, bool]:
    """The unified-observability artifact.

    With ``--trace PATH`` it audits and summarizes an existing JSONL
    event stream.  Without it, it drives *one* seeded chaos plan
    through the master--slave simulator and the decentral runtime,
    reports both traces, audits both through
    :func:`repro.verify.audit_events`, and checks that the canonical
    streams (``result`` intervals, wall-clock stripped) are
    byte-identical across the two substrates.  ``--trace-out`` /
    ``--chrome-out`` export the events as JSONL / a Perfetto-loadable
    Chrome trace.
    """
    from ..obs import (
        capture,
        critical_path,
        read_jsonl,
        stream_digest,
        trace_report,
        write_chrome_trace,
        write_jsonl,
    )
    from ..verify import audit_events

    if args.trace:
        events = list(read_jsonl(args.trace))
        parts = [
            trace_report(events, title=f"trace-report: {args.trace}"),
            "",
        ]
        # A merged file may hold one run per substrate (that is the
        # point of the unified schema), so coverage is audited per
        # event source -- auditing the union would double-count.
        by_source: dict[str, list] = {}
        for ev in events:
            by_source.setdefault(ev.source, []).append(ev)
        ok = True
        for source in sorted(by_source):
            if not any(e.kind == "result" for e in by_source[source]):
                continue  # helper sources (e.g. chaos) carry no ledger
            audit = audit_events(by_source[source], subject=source)
            parts.append(audit.summary())
            ok = ok and audit.ok
        for source in sorted(by_source):
            if not any(e.kind == "result" for e in by_source[source]):
                continue
            parts.append("")
            parts.append(critical_path(by_source[source]).summary())
    else:
        from ..chaos import FaultPlan
        from ..decentral import run_decentral
        from ..simulation import simulate
        from ..simulation.cluster import ClusterSpec, NodeSpec
        from ..workloads import UniformWorkload

        wl = UniformWorkload(size=240, unit=2e-4)
        cluster = ClusterSpec(nodes=[
            NodeSpec(name=f"n{i}", speed=100.0) for i in range(3)
        ])
        plan = FaultPlan.random(args.seed, workers=3, horizon=1.0)
        clean = simulate("TSS", wl, cluster)
        with capture() as sim_trace:
            simulate("TSS", wl, cluster,
                     chaos=plan.scaled(0.5 * clean.t_p),
                     collector=sim_trace)
        with capture() as run_trace:
            run_decentral("TSS", wl, 3, plan=plan, time_scale=0.2,
                          collector=run_trace)
        events = [*sim_trace.events, *run_trace.events]
        a_sim = audit_events(sim_trace.events, total=wl.size,
                             scheme="TSS", workers=3,
                             subject="sim.master")
        a_run = audit_events(run_trace.events, total=wl.size,
                             scheme="TSS", workers=3,
                             subject="runtime.decentral")
        d_sim = stream_digest(sim_trace.events)
        d_run = stream_digest(run_trace.events)
        identical = d_sim == d_run
        ok = a_sim.ok and a_run.ok and identical
        parts = [
            "trace-report -- one seeded chaos plan, simulator vs "
            "decentral runtime",
            f"  seed={args.seed}  scheme=TSS  loop size={wl.size}  "
            f"workers=3",
            "",
            trace_report(sim_trace.events,
                         title="sim.master (seeded chaos)"),
            "",
            trace_report(run_trace.events,
                         title="runtime.decentral (same plan)"),
            "",
            a_sim.summary(),
            a_run.summary(),
            "",
            f"  canonical streams: sim={d_sim[:16]} "
            f"runtime={d_run[:16]} -> "
            + ("IDENTICAL" if identical else "DIVERGE"),
            "",
            critical_path(sim_trace.events).summary(),
        ]
    if args.trace_out:
        write_jsonl(args.trace_out, events)
        parts.append(f"  wrote JSONL trace: {args.trace_out}")
    if args.chrome_out:
        write_chrome_trace(args.chrome_out, events)
        parts.append(f"  wrote Chrome trace: {args.chrome_out}")
    return "\n".join(parts), ok


def _critpath_report(
    args: argparse.Namespace, workload=None
) -> tuple[str, bool]:
    """The critical-path-explainer artifact.

    With ``--trace PATH`` it reconstructs the blocking chain and the
    per-worker time attribution from an existing JSONL event stream.
    Without it, it runs one fault-free TSS scenario twice -- the full
    DES with observability on, and the analytic fast path -- then
    proves the explainer against the closed form: the reconstructed
    makespan must equal both substrates' ``t_p`` bit-exactly, and
    every observed chunk must land on its predicted ``[start, stop)``
    interval with zero drift (see
    :func:`repro.obs.critpath.fastpath_drift`).
    """
    from ..obs import capture, critical_path, fastpath_drift, read_jsonl

    if args.trace:
        events = list(read_jsonl(args.trace))
        by_source: dict[str, list] = {}
        for ev in events:
            by_source.setdefault(ev.source, []).append(ev)
        parts = [f"critpath-report: {args.trace}"]
        for source in sorted(by_source):
            if not any(e.kind == "result" for e in by_source[source]):
                continue
            parts.append("")
            parts.append(
                critical_path(by_source[source]).summary()
            )
        return "\n".join(parts), True

    from ..simulation import simulate
    from ..simulation.cluster import ClusterSpec, NodeSpec
    from ..workloads import UniformWorkload

    wl = UniformWorkload(size=240, unit=2e-4)
    cluster = ClusterSpec(nodes=[
        NodeSpec(name=f"n{i}", speed=100.0 + 40.0 * i)
        for i in range(3)
    ])
    with capture() as trace:
        res = simulate("TSS", wl, cluster, collector=trace,
                       fast=False)
    fast = simulate("TSS", wl, cluster, collect_results=True)
    rep = critical_path(trace.events)
    drift = fastpath_drift(trace.events, fast.chunks)
    exact = rep.makespan == res.t_p == fast.t_p
    ok = exact and drift.ok
    parts = [
        "critpath-report -- fault-free DES trace vs analytic "
        "fast path",
        f"  scheme=TSS  loop size={wl.size}  workers=3 "
        f"(heterogeneous)",
        "",
        rep.summary(),
        "",
        f"  DES t_p={res.t_p:.9f}  fast t_p={fast.t_p:.9f}  "
        f"explained makespan={rep.makespan:.9f} -> "
        + ("EXACT" if exact else "DIVERGE"),
        f"  fast-path drift: matched={drift.matched} "
        f"max|dt|={drift.max_abs_drift:.3g} -> "
        + ("ZERO" if drift.ok else "DRIFT"),
    ]
    return "\n".join(parts), ok


def _windows_report(args: argparse.Namespace, workload=None) -> str:
    # Sweep around the CLI width the way the paper sweeps around 4000
    # (4000, 5000, "and so on").
    sweep = tuple(max(4, args.width * f // 4) for f in (1, 2, 4, 8))
    return windows.report(
        widths=sweep, height=args.height, n_jobs=args.jobs,
    )


class Artifact(NamedTuple):
    """One row of :data:`ARTIFACTS`."""

    #: ``(args, shared workload or None) -> text``, or ``-> (text,
    #: ok)`` for a ``checked`` artifact.
    report: Callable
    #: regenerated by ``repro-experiments all``
    in_all: bool = True
    #: takes the invocation's shared paper workload
    shared: bool = False
    #: returns ``(text, ok)``; a false ``ok`` makes the exit code 1
    checked: bool = False


#: The artifact menu, declared once: the argparse ``choices``, the
#: print order of ``all`` and the dispatch in :func:`main` are all
#: read from this table.
ARTIFACTS: dict[str, Artifact] = {
    "table1": Artifact(lambda args, wl: table1.report()),
    "table2": Artifact(lambda args, wl: table2.report(
        workload=wl, serial_seconds=args.serial_seconds,
        n_jobs=args.jobs,
    ), shared=True),
    "table3": Artifact(lambda args, wl: table3.report(
        workload=wl, serial_seconds=args.serial_seconds,
        n_jobs=args.jobs,
    ), shared=True),
    "fig1": Artifact(_fig1_report),
    "fig2": Artifact(lambda args, wl: figures.figure2_ascii()),
    "gantt": Artifact(_gantt_report, shared=True),
    "windows": Artifact(_windows_report),
    "figures": Artifact(_figures_report, shared=True),
    "ablations": Artifact(lambda args, wl: ablations.report(
        workload=wl, n_jobs=args.jobs,
    ), shared=True),
    "replicate": Artifact(lambda args, wl: replicate.report(
        workload=wl, n_jobs=args.jobs,
    ), shared=True),
    "validate": Artifact(lambda args, wl: validation.report(
        wl, n_jobs=args.jobs,
    ), shared=True),
    "decentral-sweep": Artifact(
        lambda args, wl: decentral_sweep.report(n_jobs=args.jobs)
    ),
    "adaptive-sweep": Artifact(lambda args, wl: adaptive_sweep.report(
        seed=args.seed, n_jobs=args.jobs,
    )),
    "schemes": Artifact(_schemes_report, in_all=False),
    "verify-chaos": Artifact(
        _verify_chaos_report, in_all=False, checked=True
    ),
    "trace-report": Artifact(_trace_report, in_all=False, checked=True),
    "critpath-report": Artifact(
        _critpath_report, in_all=False, checked=True
    ),
}

#: Artifacts regenerated by ``repro-experiments all``, in print order.
ALL_ARTIFACTS = tuple(
    name for name, artifact in ARTIFACTS.items() if artifact.in_all
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    from ..obs import configure_logging, write_artifact

    args = build_parser().parse_args(argv)
    configure_logging(args.log_level)
    if args.no_fast:
        # Every experiment module reaches simulate() through the
        # engines' auto-dispatch; the environment kill-switch is the
        # one lever that covers them all.
        import os

        from ..simulation.fastpath import ENV_FAST

        os.environ[ENV_FAST] = "0"
    if args.cache_dir is not None or args.no_cache:
        cache.configure(
            directory=args.cache_dir, enabled=not args.no_cache
        )
    wanted = (
        ALL_ARTIFACTS if args.experiment == "all" else (args.experiment,)
    )
    # One workload serves every artifact of the invocation: its cost
    # profile is resolved once (persistent cache or one computation)
    # instead of once per sub-report.
    shared_wl = None
    if any(ARTIFACTS[name].shared for name in wanted):
        from .config import paper_workload

        shared_wl = paper_workload(
            width=args.width, height=args.height, sf=args.sf
        )
    out: list[str] = []
    failed = False
    for name in wanted:
        artifact = ARTIFACTS[name]
        text = artifact.report(args, shared_wl)
        if artifact.checked:
            text, ok = text
            failed = failed or not ok
        out.append(text)
    write_artifact("\n".join(out))
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
