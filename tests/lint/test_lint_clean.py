"""Tier-1 gate: the repo's own source must lint clean.

This is the test that makes every other rule test matter: the rules
are not aspirational, the codebase actually satisfies them, and any
PR that introduces a violation fails here.  With the repo as root the
REP4xx "written once" rules (``repro.lint.repo``) run too; this gate is
their clean side, ``test_repo_rules.py`` holds their mutants.

The run is the session's one ``repo_lint`` (``conftest.py``), which
``test_engine.py::test_one_parse_per_file`` reads as well.
"""

from __future__ import annotations


def test_repo_source_is_lint_clean(repo_lint):
    findings = repo_lint.findings
    assert findings == [], "\n" + "\n".join(
        f.render() for f in findings
    )
