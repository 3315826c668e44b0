"""Layered benchmark ledger: one workload per invocation.

    python3 benchmarks/ledger/run.py --workload sweep_fast --seed 0 \\
        --seconds 10 --trace 0

prints, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the six end-to-end metrics
(``--trace 0``) or every per-layer metric (``--trace 1``, which also
writes ``benchmarks/ledger/_run/spans.jsonl``).  See README.md here for
the glossary and the method.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_ROOT = os.path.join("benchmarks", "ledger", "_run")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

# Standard library only; everything that imports ``repro`` is imported
# inside execute(), where the import time is measured.
import guard as guard_mod  # noqa: E402
import host  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="a tenth of the operations (the self-test's mode)",
    )
    parser.add_argument(
        "--golden", default=None,
        help="golden file to compare seed-0 statistics with",
    )
    parser.add_argument(
        "--update-golden", action="store_true",
        help="rewrite this workload's entry of the golden file",
    )
    return parser.parse_args(argv)


def timed_phase(runner, n_passes):
    """``n_passes`` identical passes in calibration-bracketed rounds.

    Returns reference-speed rates per pass, latencies per operation,
    CPU seconds, and the raw wall seconds beside them.
    """
    norm = host.Normaliser()
    rounds = runner.rounds()
    rates, latencies = [], []
    cpu = raw_wall = 0.0
    norm.mark()
    for _ in range(n_passes):
        pass_wall = 0.0
        for lo, hi in rounds:
            pids = runner.child_pids()
            c0 = host.cpu_seconds(pids)
            t0 = time.perf_counter()
            lat = runner.run_round(lo, hi)
            t1 = time.perf_counter()
            c1 = host.cpu_seconds(pids)
            norm.mark()
            factor = norm.factor()
            pass_wall += (t1 - t0) / factor
            raw_wall += t1 - t0
            cpu += (c1 - c0) / factor
            latencies.extend(x / factor for x in lat)
        rates.append(runner.ops / pass_wall)
    return {
        "rates": rates,
        "latencies": latencies,
        "cpu": cpu,
        "raw_wall": raw_wall,
        "jobs": n_passes * runner.ops,
        "norm": norm,
    }


def end_to_end(phase, setup_s, rss_mb) -> dict:
    lat = phase["latencies"]
    return {
        "setup_s": setup_s,
        "jobs_per_s": statistics.median(phase["rates"]),
        "job_p50_ms": host.quantile(lat, 0.50) * 1e3,
        "job_p95_ms": host.quantile(lat, 0.95) * 1e3,
        "cpu_ms_per_job": phase["cpu"] / phase["jobs"] * 1e3,
        "peak_rss_mb": rss_mb,
    }


def execute(args, run_dir):
    """Run one workload; returns ``(exit_code, result_line_dict)``."""
    # Imports happen once per process: bracketed on their own and
    # charged to every set-up.
    startup_s = time.perf_counter() - _T_START
    with host.bracketed() as factor:
        t0 = time.perf_counter()
        import checks
        import layers
        import workloads
        startup_s += time.perf_counter() - t0
    import_norm = startup_s / factor[0]
    tracer = host.Tracer(bool(args.trace))
    problems = []

    setups = []
    runner = None
    for k in range(1 if args.trace else SETUPS):
        if runner is not None:
            runner.stop()
            shutil.rmtree(runner.tmp)
        tmp = os.path.join(run_dir, f"s{k}")
        os.makedirs(tmp)
        with host.bracketed() as factor:
            t0 = time.perf_counter()
            runner = workloads.set_up(
                args.workload, args.seed, tmp, tracer
            )
            took = time.perf_counter() - t0
        setups.append(took / factor[0] + import_norm)
    try:
        problems += checks.output_checks(runner)
        golden = args.golden or checks.GOLDEN_PATH
        if args.update_golden:
            checks.update_golden(runner.inputs, runner.warm, golden)
        elif args.seed == checks.GOLDEN_SEED or args.golden:
            problems += checks.check_golden(
                runner.inputs, runner.warm, golden
            )
        if not args.trace:
            runner.warm = []  # keep peak RSS the workload's own

        n_passes = workloads.passes_for(
            args.workload, args.seconds, args.quick
        )
        if args.trace:
            # A fifth of the passes traced, a fifth not: their ratio
            # is the tracing overhead; the rest of the budget goes to
            # the layer replays.
            share = max(2, n_passes // 5)
            probes = []
            if runner.inputs.service:
                probes.append(layers.metrics_probe(runner.daemon.client))
            traced = timed_phase(runner, share)
            tracer.enabled = False
            phase = timed_phase(runner, share)
            if runner.inputs.service:
                probes.append(layers.metrics_probe(runner.daemon.client))
        else:
            phase = timed_phase(runner, n_passes)
        rss_mb = host.peak_rss_mb(runner.child_pids())
    finally:
        runner.stop()
    left = multiprocessing.active_children()
    if left:
        # The guard will kill them; the run still says so.
        problems.append(f"children alive after stop(): {left}")
    pool_log = None
    if runner.inputs.service:
        # stop() drained the daemon: the ledger is final.
        pool_log = list(runner.daemon.server.pool.log)
        problems += checks.check_service_log(pool_log)

    # BENCHMARK.json is the one list of metric names and units.
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as fh:
        contract = json.load(fh)
    if args.trace:
        units = {m["name"]: m["unit"] for m in contract["per_layer"]}
        tracer.enabled = True
        values = layers.per_layer(
            runner, run_dir, tracer, pool_log, units, *probes
        )
        values.update(layers.harness_metrics(traced, phase))
        tracer.dump(os.path.join(RUN_ROOT, "spans.jsonl"))
    else:
        units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
        values = end_to_end(phase, statistics.median(setups), rss_mb)
    if values.keys() != units.keys():
        problems.append(
            f"metrics measured and BENCHMARK.json differ: "
            f"{sorted(values.keys() ^ units.keys())}"
        )
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items() if name in values
    }

    for line in problems[:20]:
        print(f"ledger: check failed: {line}", file=sys.stderr)
    print(
        f"ledger: {args.workload} seed={args.seed} "
        f"passes={len(phase['rates'])} jobs={phase['jobs']} "
        f"latency_samples={len(phase['latencies'])} "
        f"raw_wall={phase['raw_wall']:.2f}s "
        f"calib_p50={phase['norm'].calib_ms_p50():.2f}ms",
        file=sys.stderr,
    )
    correct = not problems and runner.failed == 0
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    return (0 if correct else 1), result


def main(argv=None) -> None:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print("ledger: no src/repro next to the benchmark; nothing to "
              "measure", file=sys.stderr)
        sys.exit(2)
    os.chdir(ROOT)
    # Before anything forks: one CPU for the whole tree, the
    # death-signal hook, the deadline.
    host.pin_to_one_cpu()
    guard = guard_mod.Guard(
        deadline_s=min(170.0, max(120.0, 6.0 * args.seconds))
    )
    run_dir = os.path.join(RUN_ROOT, str(os.getpid()))
    guard.cleanup = lambda: shutil.rmtree(run_dir, ignore_errors=True)
    code, result, why = 2, None, ""
    try:
        os.makedirs(run_dir)
        code, result = execute(args, run_dir)
    except BaseException:  # noqa: BLE001 - one exit path for everything
        traceback.print_exc()
        code, result, why = 2, None, "run aborted"
    guard.finish(code, result, why)


if __name__ == "__main__":
    main()
