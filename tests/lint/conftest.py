"""Shared helpers for the repro-lint test suite.

Tests drive :func:`repro.lint.run_lint` two ways:

* over the static fixture files in ``tests/lint/fixtures/`` (one
  ``repNNN_bad.py`` / ``repNNN_good.py`` pair per rule, plus the
  ``proto_bad`` / ``proto_good`` trees for the cross-file rules);
* over throwaway module trees written to ``tmp_path`` (the synthetic
  violation tests, and the REP4xx mutant table).

Fixture files are *parsed, never imported*, so they are free to
reference undefined names (``ObsEvent``) and commit the exact sins
the rules exist to catch.
"""

from __future__ import annotations

import os

from repro.lint import LintConfig, run_lint

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
#: The repository root (the clean gate's ``LintConfig.root``).
REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def lint_fixture(name: str, **config):
    """Findings for one fixture file or tree under ``fixtures/``."""
    return run_lint(
        [os.path.join(FIXTURES, name)], LintConfig(**config)
    )


def lint_tree(tmp_path, sources: dict, under: str = "", **config):
    """Write ``{relpath: source}`` under ``tmp_path`` and lint
    ``tmp_path / under``."""
    for rel, src in sources.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(src, encoding="utf-8")
    return run_lint([tmp_path / under], LintConfig(**config))


def rules_of(findings) -> set:
    return {f.rule for f in findings}
