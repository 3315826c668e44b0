"""The ``repro-lint`` console entry point: exit codes and formats."""

from __future__ import annotations

import json

from repro.lint.cli import main

CLEAN = "def add(a, b):\n    return a + b\n"
DIRTY = (
    "import random\n"
    "def canonical_stream(events):\n"
    "    random.shuffle(events)\n"
    "    return hash(tuple(e.kind for e in events))\n"
)


def _write(tmp_path, name: str, source: str) -> str:
    target = tmp_path / name
    target.write_text(source, encoding="utf-8")
    return str(target)


def test_clean_path_exits_zero(tmp_path, capsys):
    path = _write(tmp_path, "clean.py", CLEAN)
    assert main([path]) == 0
    assert "repro-lint: clean" in capsys.readouterr().out


def test_findings_exit_one_naming_their_rules(tmp_path, capsys):
    path = _write(tmp_path, "dirty.py", DIRTY)
    assert main([path]) == 1
    out = capsys.readouterr().out
    # The seeded violations surface as exactly the expected rules.
    assert "REP001" in out  # random.shuffle
    assert "REP005" in out  # hash() in digest-critical code
    assert "finding(s)" in out


def test_missing_path_exits_two(tmp_path, capsys):
    assert main([str(tmp_path / "nope")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_json_format(tmp_path, capsys):
    path = _write(tmp_path, "dirty.py", DIRTY)
    assert main([path, "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    rules = {f["rule"] for f in doc["findings"]}
    assert {"REP001", "REP005"} <= rules


def test_select_and_ignore(tmp_path):
    path = _write(tmp_path, "dirty.py", DIRTY)
    # Selecting only the async family finds nothing here.
    assert main([path, "--select", "REP2"]) == 0
    # Ignoring the determinism family likewise.
    assert main([path, "--ignore", "REP0"]) == 0
    assert main([path, "--ignore", "REP9"]) == 1


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("REP000", "REP001", "REP101", "REP201", "REP301",
                    *(f"REP4{n:02}" for n in range(1, 11))):
        assert rule_id in out


def test_syntax_error_reported_as_rep000(tmp_path, capsys):
    path = _write(tmp_path, "broken.py", "def broken(:\n")
    assert main([path]) == 1
    assert "REP000" in capsys.readouterr().out
