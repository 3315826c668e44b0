"""REP0xx determinism rules against the fixture pairs."""

from __future__ import annotations

from .conftest import lint_fixture, rules_of


class TestRep001GlobalRng:
    def test_bad_fixture_fails(self):
        findings = [
            f for f in lint_fixture("rep001_bad.py")
            if f.rule == "REP001"
        ]
        # random.random(), bare shuffle(), np.random.seed, np.random.rand
        assert len(findings) == 4
        assert all("process-global RNG" in f.message for f in findings)

    def test_good_fixture_passes(self):
        assert "REP001" not in rules_of(lint_fixture("rep001_good.py"))


class TestRep002UnseededRng:
    def test_bad_fixture_fails(self):
        findings = [
            f for f in lint_fixture("rep002_bad.py")
            if f.rule == "REP002"
        ]
        assert len(findings) == 3
        assert any("SystemRandom" in f.message for f in findings)

    def test_good_fixture_passes(self):
        assert "REP002" not in rules_of(lint_fixture("rep002_good.py"))


class TestRep003ClockIntoDigest:
    def test_bad_fixture_fails(self):
        findings = [
            f for f in lint_fixture("rep003_bad.py")
            if f.rule == "REP003"
        ]
        # stamp=time.time(), token=uuid4, and the digest-critical
        # time.time() in canonical_stream
        assert len(findings) == 3

    def test_good_fixture_passes(self):
        # t/wall are the sanctioned clock sinks; the module also reads
        # the clock outside any event, which is fine off the digest path.
        assert "REP003" not in rules_of(lint_fixture("rep003_good.py"))


class TestRep003Rows:
    """The same rule over rows: elements 2 and 10 (``t``/``wall``)
    may read the clock, every other element may not."""

    def test_bad_fixture_fails(self):
        findings = [
            f for f in lint_fixture("rep003_rows_bad.py")
            if f.rule == "REP003"
        ]
        # time.time() as the row's value, uuid4 as its detail
        assert len(findings) == 2
        assert all("event row" in f.message for f in findings)

    def test_good_fixture_passes(self):
        assert "REP003" not in rules_of(
            lint_fixture("rep003_rows_good.py"))


class TestRep004SetIteration:
    def test_bad_fixture_fails(self):
        findings = [
            f for f in lint_fixture("rep004_bad.py")
            if f.rule == "REP004"
        ]
        # for-loop over a set display, join() over a set comprehension,
        # comprehension over set(...)
        assert len(findings) == 3

    def test_good_fixture_passes(self):
        assert "REP004" not in rules_of(lint_fixture("rep004_good.py"))


class TestRep005BuiltinHash:
    def test_bad_fixture_fails(self):
        findings = [
            f for f in lint_fixture("rep005_bad.py")
            if f.rule == "REP005"
        ]
        assert len(findings) == 1
        assert "PYTHONHASHSEED" in findings[0].message

    def test_good_fixture_passes(self):
        # hash() inside __hash__ is the protocol, not a digest input.
        assert "REP005" not in rules_of(lint_fixture("rep005_good.py"))
