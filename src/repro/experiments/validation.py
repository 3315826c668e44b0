"""The reproduction gate: check every paper shape claim in one pass.

``repro-experiments validate`` runs the whole battery and prints a
PASS/FAIL checklist.  Each check corresponds to a sentence in the
paper (quoted in the check's description); EXPERIMENTS.md discusses
the ones that are known-divergent.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

from ..analysis import power_cap
from ..obs.logutil import get_logger
from ..workloads import Workload
from . import figures, table1, table2, table3
from .config import FAST_SLOW_RATIO, paper_workload

__all__ = ["Check", "run_checks", "report"]

_log = get_logger("experiments.validation")


@dataclasses.dataclass
class Check(object):
    """One verifiable claim and its outcome."""

    claim: str
    passed: bool
    detail: str = ""


def run_checks(
    workload: Optional[Workload] = None, n_jobs: int = 1
) -> list[Check]:
    """Run every shape check; returns the checklist.

    ``n_jobs`` fans the underlying table/figure simulations out through
    the batch layer (results are bit-identical to serial).
    """
    wl = workload or paper_workload(width=1000, height=500)
    checks: list[Check] = []

    def add(claim: str, fn: Callable[[], tuple[bool, str]]) -> None:
        try:
            ok, detail = fn()
        except Exception as exc:  # noqa: BLE001  # pragma: no cover
            # Deliberately broad: this is the checklist harness
            # boundary, and one crashing check must surface as a FAIL
            # row (with a logged traceback) rather than abort the rest
            # of the battery.
            _log.exception("check %r raised", claim)
            ok, detail = False, f"raised {exc!r}"
        checks.append(Check(claim=claim, passed=ok, detail=detail))

    # -- Table 1 --------------------------------------------------------------
    def check_table1():
        rows = table1.run()
        bad = [
            scheme
            for scheme, expected in table1.PAPER_TABLE1.items()
            if rows[scheme][: len(expected)] != expected
        ]
        return not bad, f"mismatching rows: {bad}" if bad else "verbatim"

    add("Table 1 chunk rows match the paper verbatim", check_table1)

    # -- Tables 2/3 ------------------------------------------------------------
    simple_d = table2.run(workload=wl, dedicated=True, n_jobs=n_jobs)
    simple_n = table2.run(workload=wl, dedicated=False, n_jobs=n_jobs)
    dist_d = table3.run(workload=wl, dedicated=True, n_jobs=n_jobs)
    dist_n = table3.run(workload=wl, dedicated=False, n_jobs=n_jobs)

    def check_simple_best():
        master = {k: v.t_p for k, v in simple_d.items() if k != "TreeS"}
        best = min(master, key=master.get)
        return best in ("TSS", "TFSS"), f"best simple = {best}"

    add('"TSS performed best, followed by TFSS" (Table 2): a '
        "decreasing-chunk scheme first, within single-run noise",
        check_simple_best)

    def check_simple_imbalanced():
        imb = simple_d["TSS"].comp_imbalance()
        return imb > 0.3, f"TSS comp imbalance = {imb:.2f}"

    add('"The execution is not well-balanced" (Table 2)',
        check_simple_imbalanced)

    def check_distributed_wins():
        pairs = [("TSS", "DTSS"), ("FSS", "DFSS"), ("FISS", "DFISS"),
                 ("TFSS", "DTFSS")]
        wins = [
            f"{d}:{dist_d[d].t_p:.1f}<{s}:{simple_d[s].t_p:.1f}"
            for s, d in pairs
            if dist_d[d].t_p < simple_d[s].t_p
        ]
        return len(wins) >= 3, "; ".join(wins)

    add("Distributed schemes beat their simple counterparts (Table 3 "
        "vs Table 2)", check_distributed_wins)

    def check_distributed_balanced():
        imb_d = dist_d["DTSS"].comp_imbalance()
        imb_s = simple_d["TSS"].comp_imbalance()
        return imb_d < imb_s, (
            f"DTSS imbalance {imb_d:.2f} vs TSS {imb_s:.2f}"
        )

    add('"The execution is well-balanced, in terms of the computation '
        'times" (Table 3)', check_distributed_balanced)

    def check_dtss_best():
        master = {k: v.t_p for k, v in dist_n.items() if k != "TreeS"}
        best = min(master, key=master.get)
        return best in ("DTSS", "DTFSS"), f"best distributed = {best}"

    add('"The DTSS and DFISS were the most efficient" (nondedicated; '
        "DTSS or its trapezoid sibling first)", check_dtss_best)

    def check_nondedicated_degrades():
        worse = [
            s for s in ("TSS", "FSS", "TFSS")
            if simple_n[s].t_p > simple_d[s].t_p
        ]
        return len(worse) == 3, f"degraded: {worse}"

    add("Nondedicated load inflates simple-scheme T_p",
        check_nondedicated_degrades)

    def check_wait_reduction():
        wait_s = sum(w.t_wait for w in simple_d["FSS"].workers)
        wait_d = sum(w.t_wait for w in dist_d["DFSS"].workers)
        return wait_d < wait_s, (
            f"sum T_wait FSS {wait_s:.0f}s vs DFSS {wait_d:.0f}s"
        )

    add('"The communication/waiting times are much reduced compared '
        'to the Simple schemes" (Sec. 6.1)', check_wait_reduction)

    # -- Figures ---------------------------------------------------------------
    fig6 = figures.figure6(workload=wl, n_jobs=n_jobs)
    fig4 = figures.figure4(workload=wl, n_jobs=n_jobs)

    def check_caps():
        cap = power_cap([FAST_SLOW_RATIO] * 3 + [1.0] * 5)
        over = [
            name
            for name, pts in fig6.series.items()
            if pts[-1][2] > cap + 0.5
        ]
        return not over, f"cap {cap:.2f}; over: {over}" if over \
            else f"all under cap {cap:.2f}"

    add('Speedups respect the heterogeneous power cap ("we expect '
        'S_p <= 4.5", Fig. 6)', check_caps)

    def check_dip():
        # p=1/2 speedups sit low (communication cost dip).
        lows = [
            pts[0][2] < 1.0 and pts[1][2] < 2.0
            for pts in fig4.series.values()
        ]
        return all(lows), "all p<=2 speedups low"

    add('"The dip, for p = 2, is due to the communication cost" '
        "(Figs. 4-7)", check_dip)

    def check_dist_scales():
        best_d = max(
            pts[-1][2] for name, pts in fig6.series.items()
            if name != "TreeS"
        )
        best_s = max(
            pts[-1][2] for name, pts in fig4.series.items()
            if name != "TreeS"
        )
        return best_d > best_s, (
            f"distributed p=8 best {best_d:.2f} vs simple {best_s:.2f}"
        )

    add("Distributed schemes outscale simple ones at p = 8 "
        "(Fig. 6 vs Fig. 4)", check_dist_scales)

    return checks


def report(workload: Optional[Workload] = None, n_jobs: int = 1) -> str:
    """The checklist as text; ends with an overall verdict."""
    checks = run_checks(workload, n_jobs=n_jobs)
    lines = ["Reproduction gate -- paper shape claims", ""]
    for check in checks:
        mark = "PASS" if check.passed else "FAIL"
        lines.append(f"[{mark}] {check.claim}")
        if check.detail:
            lines.append(f"       {check.detail}")
    passed = sum(c.passed for c in checks)
    lines.append("")
    lines.append(f"{passed}/{len(checks)} checks passed")
    return "\n".join(lines)
