"""REP3xx cross-file protocol rules: fixture trees + synthetic trees.

The synthetic-tree test is the acceptance check: a temp module tree
that emits an ObsEvent kind missing from the schema must produce
*exactly* ``{REP301}`` -- nothing more (no false positives from the
other rules), nothing less.
"""

from __future__ import annotations

from .conftest import lint_fixture, lint_tree, rules_of


class TestProtoFixtureTrees:
    def test_bad_tree_fails_per_rule(self):
        findings = lint_fixture("proto_bad")
        by_rule: dict = {}
        for f in findings:
            by_rule.setdefault(f.rule, []).append(f)
        # REP301: ObsEvent("chunkk"), kind="progress", emit("heartbeatt")
        assert len(by_rule.get("REP301", [])) == 3
        # REP305: "submitt" assignment, the "statuss" dispatch
        # arm, and the "watchh" alias in the membership test
        assert len(by_rule.get("REP305", [])) == 3

    def test_bad_tree_messages_name_the_authority(self):
        findings = lint_fixture("proto_bad")
        rep301 = [f for f in findings if f.rule == "REP301"]
        assert all("EVENT_KINDS" in f.message for f in rep301)
        rep305 = [f for f in findings if f.rule == "REP305"]
        assert all("OPS" in f.message for f in rep305)

    def test_good_tree_is_clean(self):
        findings = lint_fixture("proto_good")
        assert findings == [], [f.render() for f in findings]


class TestRep301Rows:
    """A row handed to an emit helper -- what the per-chunk DES sites
    write -- has its kind at element 0, and REP301 reads it there."""

    def test_bad_tree_flags_each_undeclared_row_kind(self):
        findings = [
            f for f in lint_fixture("rep301_rows_bad")
            if f.rule == "REP301"
        ]
        assert sorted(f.message.split("'")[1] for f in findings) == [
            "compoote", "deliver",
        ]
        assert all(f.path.endswith("engine.py") for f in findings)

    def test_good_tree_is_clean(self):
        findings = lint_fixture("rep301_rows_good")
        assert findings == [], [f.render() for f in findings]


class TestSyntheticTree:
    """The ISSUE acceptance scenario, built from scratch in tmp_path."""

    def test_orphan_scheme_and_unknown_kind_exact_rule_ids(
        self, tmp_path
    ):
        findings = lint_tree(tmp_path, {
            "pkg/events.py": (
                'EVENT_KINDS = frozenset({"chunk", "result"})\n'
            ),
            "pkg/registry.py": (
                "SCHEMES = {\n"
                '    "TSS": "trapezoid",\n'
                '    "GHOST": "unbacked",\n'
                "}\n"
            ),
            "pkg/emitter.py": (
                "def publish(bus, t):\n"
                '    bus.push(ObsEvent("mystery", "src", t))\n'
            ),
        })
        assert rules_of(findings) == {"REP301"}
        assert len(findings) == 1
        assert "'mystery'" in findings[0].message
        assert findings[0].path.endswith("emitter.py")

    def test_no_schema_no_rep301(self, tmp_path):
        # Trees without an EVENT_KINDS authority are not judged: the
        # rule cannot know the schema, so it stays silent rather than
        # flagging everything.
        findings = lint_tree(tmp_path, {
            "pkg/emitter.py": (
                "def publish(bus, t):\n"
                '    bus.push(ObsEvent("anything", "src", t))\n'
            ),
        })
        assert "REP301" not in rules_of(findings)

    def test_scheme_tuple_is_not_the_registry(self, tmp_path):
        # Experiment modules reuse the name SCHEMES for column tuples;
        # only dict displays are the authority (the false positive the
        # first run over this repo actually hit).  "TreeS" appears in
        # no test, so REP304 would flag it if the tuple counted.
        tests = tmp_path / "tests"
        tests.mkdir()
        (tests / "test_schemes.py").write_text(
            'def test_tss():\n    assert "TSS"\n', encoding="utf-8"
        )
        findings = lint_tree(tmp_path / "src", {
            "pkg/registry.py": 'SCHEMES = {"TSS": "t"}\n',
            "pkg/table.py": 'SCHEMES = ("TSS", "TreeS")\n',
        }, tests_dir=str(tests))
        assert findings == [], [f.render() for f in findings]


class TestRep304SchemeTestCoverage:
    def test_unreferenced_scheme_flagged(self, tmp_path):
        src = tmp_path / "src"
        tests = tmp_path / "tests"
        tests.mkdir()
        (tests / "test_schemes.py").write_text(
            'def test_tss():\n    assert "TSS"\n', encoding="utf-8"
        )
        src.mkdir()
        (src / "registry.py").write_text(
            'SCHEMES = {"TSS": "t", "ZZZQ": "z"}\n', encoding="utf-8"
        )
        from repro.lint import LintConfig, run_lint

        findings = run_lint(
            [src], LintConfig(tests_dir=str(tests))
        )
        rep304 = [f for f in findings if f.rule == "REP304"]
        assert len(rep304) == 1
        assert "'ZZZQ'" in rep304[0].message

    def test_without_tests_dir_rule_skipped(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "registry.py": 'SCHEMES = {"ZZZQ": "z"}\n',
        })
        assert "REP304" not in rules_of(findings)
