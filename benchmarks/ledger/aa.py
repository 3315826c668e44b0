"""A/A tool: is the ledger steady enough for the bounds it declares?

    python3 benchmarks/ledger/aa.py                    # all workloads
    python3 benchmarks/ledger/aa.py --workloads sweep_fast --runs 10
    python3 benchmarks/ledger/aa.py --trace 1          # exact counts

Runs two interleaved sets (A1 B1 A2 B2 ...) of ``--runs`` runs per
workload of the *same* tree, the seeds cycling through ``--seeds``,
and prints for every metric each set's median and quartiles, the
spread of each set (distance between its quartiles over its median,
what the driver computes) and the relative difference of the two
medians, against the bound in ``BENCHMARK.json``.  With ``--trace 1``
it also checks that every count repeats exactly per seed.

Where a timing metric's A/A difference exceeds its bound, fix the
measurement first (more rounds, finer brackets) and only then widen
the bound.  Runs are sequential ``subprocess.run`` calls with a
timeout; nothing is left in the background.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def run_once(workload, seed, seconds, trace, quick) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names,
                        choices=names)
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set (>= 5 to mean anything)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    exact = {m["name"] for m in spec if m["unit"] in ("count", "B")}
    worst = 0.0
    for workload in args.workloads:
        sets = {"A": [], "B": []}
        by_seed: dict = {}
        for i in range(args.runs):
            seed = args.seeds[i % len(args.seeds)]
            for label in ("A", "B"):
                metrics = run_once(workload, seed, args.seconds,
                                   args.trace, args.quick)
                sets[label].append(metrics)
                for name in exact:
                    by_seed.setdefault((seed, name), set()).add(
                        metrics[name])
        print(f"\n== {workload}: 2 x {args.runs} runs, "
              f"seeds {args.seeds}")
        print(f"{'metric':34s} {'A q1/med/q3':>34s} "
              f"{'B med':>11s} {'sprA':>6s} {'sprB':>6s} "
              f"{'A/A':>6s} {'bound':>6s}")
        for m in spec:
            name, bound = m["name"], m.get("bound")
            a = [r[name] for r in sets["A"]]
            b = [r[name] for r in sets["B"]]
            qa, qb = quartiles(a), quartiles(b)
            spread_a = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
            spread_b = (qb[2] - qb[0]) / qb[1] if qb[1] else 0.0
            diff = abs(qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            flag = ""
            if bound is not None:
                ratio = max(spread_a, spread_b, diff) / bound
                if name != "setup_s":
                    worst = max(worst, ratio)
                flag = ("  OVER" if ratio > 1.0
                        else "  >1/3" if ratio > 1 / 3 else "")
            print(f"{name:34s} "
                  f"{qa[0]:11.4g}{qa[1]:11.4g}{qa[2]:11.4g} "
                  f"{qb[1]:11.4g} {spread_a:6.3f} {spread_b:6.3f} "
                  f"{diff:6.3f} "
                  f"{'' if bound is None else format(bound, '6.2f')}"
                  f"{flag}")
        unstable = sorted(
            f"{name}@seed{seed}" for (seed, name), seen in
            by_seed.items() if len(seen) > 1
        )
        if unstable:
            raise SystemExit(f"counts did not repeat exactly: {unstable}")
        if exact:
            print(f"exact counts repeated on every seed: "
                  f"{', '.join(sorted(exact))}")
    if not args.trace:
        print(f"\nworst spread-or-difference over bound "
              f"(setup_s aside): {worst:.2f}")


if __name__ == "__main__":
    main()
