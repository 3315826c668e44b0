"""Tier-1 gate: the repo's own source must lint clean.

This is the test that makes every other rule test matter: the rules
are not aspirational, the codebase actually satisfies them, and any
PR that introduces a violation fails here.  With the repo as root the
REP4xx "written once" rules (``repro.lint.repo``) run too; this gate is
their clean side, ``test_repo_rules.py`` holds their mutants.
"""

from __future__ import annotations

import os

from repro.lint import LintConfig, run_lint

from .conftest import REPO


def test_repo_source_is_lint_clean():
    findings = run_lint([os.path.join(REPO, "src")], LintConfig(root=REPO))
    assert findings == [], "\n" + "\n".join(
        f.render() for f in findings
    )
