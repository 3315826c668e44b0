"""The lint engine: content-based roles and the one parse per file."""

from __future__ import annotations

import ast
import os

from repro.lint import LintConfig, run_lint
from repro.lint.engine import CONSUMER_DIRS, _collect_files, parse_modules

from .conftest import REPO

SRC = os.path.join(REPO, "src")


def test_role_discovery_finds_the_real_authorities():
    """Content-based discovery locates this repo's actual schema
    modules -- the cross-file rules are checking something real."""
    modules, parse_errors = parse_modules([SRC])
    assert parse_errors == []
    declared: dict = {}
    for mod in modules:
        for name in mod.protocol_sets:
            declared.setdefault(name, set()).add(os.path.basename(mod.path))
    assert "events.py" in declared.get("EVENT_KINDS", set())
    assert "registry.py" in declared.get("SCHEMES", set())
    assert "protocol.py" in declared.get("OPS", set())
    digest = {os.path.basename(m.path) for m in modules if m.digest_critical}
    assert "export.py" in digest
    assert any(m.fork_sensitive for m in modules), "no fork-sensitive module"


def test_one_parse_per_file(monkeypatch):
    """Every rule reads the engine's one parse: ``run_lint`` over the
    repo parses each file of src, benchmarks and examples just once."""
    parsed = []
    parse = ast.parse

    def counting(source, filename="<unknown>", *args, **kwargs):
        parsed.append(os.path.abspath(filename))
        return parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting)
    run_lint([SRC], LintConfig(root=REPO))
    files = _collect_files([SRC, *(f"{REPO}/{top}" for top in CONSUMER_DIRS)])
    assert sorted(parsed) == sorted(map(os.path.abspath, files))
