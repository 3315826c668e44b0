"""``repro-lint``: the console entry point.

Exit codes: 0 clean, 1 findings, 2 usage errors.  ``--format json``
emits a machine-readable report for CI annotation tooling.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .engine import LintConfig, run_lint
from .rules import RULES

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Determinism & concurrency static analysis for the repro "
            "codebase: machine-checks the invariants the canonical-"
            "stream digests depend on (rule catalog: "
            "docs/static_analysis.md)."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to analyze (default: src if it "
             "exists, else .)",
    )
    parser.add_argument(
        "--select", default="REP", metavar="PREFIXES",
        help="comma-separated rule-id prefixes to run (default: REP "
             "= everything)",
    )
    parser.add_argument(
        "--ignore", default="", metavar="PREFIXES",
        help="comma-separated rule-id prefixes to skip",
    )
    parser.add_argument(
        "--tests-dir", default=None, metavar="DIR",
        help="test tree for the REP304 scheme-reference check "
             "(default: ./tests when it exists)",
    )
    parser.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _split(prefixes: str) -> tuple:
    return tuple(p.strip() for p in prefixes.split(",") if p.strip())


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule_id in sorted(RULES):
            print(f"{rule_id}  {RULES[rule_id]}")
        return 0
    paths = args.paths or (["src"] if os.path.isdir("src") else ["."])
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        print(f"repro-lint: no such path: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    tests_dir = args.tests_dir
    if tests_dir is None and os.path.isdir("tests"):
        tests_dir = "tests"
    config = LintConfig(
        select=_split(args.select) or ("REP",),
        ignore=_split(args.ignore),
        tests_dir=tests_dir,
    )
    findings = run_lint(paths, config)
    if args.format == "json":
        print(json.dumps(
            {"findings": [f.to_dict() for f in findings]},
            indent=2, sort_keys=True,
        ))
    else:
        for finding in findings:
            print(finding.render())
        if findings:
            print(f"repro-lint: {len(findings)} finding(s)")
        else:
            print("repro-lint: clean")
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
