"""Spec parsing and error reporting for ``adaptive:...`` strings.

Every string entry point (simulate, run_parallel, SimJob, the CLIs)
funnels through ``registry.parse``, so a malformed spec must die there
with a message that names the problem *and* the valid alternatives.
"""

from __future__ import annotations

import pytest

from repro.adaptive import DEFAULT_CANDIDATES, AdaptiveScheduler
from repro.core import make, names, registry
from repro.core.base import SchemeError


class TestParse:
    def test_bare_adaptive_uses_defaults(self):
        key, kwargs = registry.parse("adaptive")
        assert key == "ADAPTIVE"
        assert kwargs == {}

    def test_candidates_and_stages(self):
        key, kwargs = registry.parse("adaptive:TSS+FSS@8")
        assert key == "ADAPTIVE"
        assert kwargs == {"candidates": ("TSS", "FSS"), "stages": 8}

    def test_case_insensitive_with_inline_candidate(self):
        _, kwargs = registry.parse("Adaptive:tss+css(64)")
        assert kwargs["candidates"] == ("TSS", "CSS(64)")

    def test_stages_only(self):
        _, kwargs = registry.parse("adaptive@5")
        assert kwargs == {"stages": 5}

    def test_adaptive_listed_in_names(self):
        assert "ADAPTIVE" in names()


class TestMake:
    def test_make_builds_adaptive_scheduler(self):
        sched = make("adaptive:TSS+GSS@4", 1000, 4)
        assert isinstance(sched, AdaptiveScheduler)
        assert sched.candidates == ("TSS", "GSS")
        assert sched.stages == 4
        assert sched.feedback_dependent

    def test_make_defaults(self):
        sched = make("adaptive", 1000, 4)
        assert sched.candidates == DEFAULT_CANDIDATES
        assert sched.stages == len(DEFAULT_CANDIDATES) + 3

    def test_kwargs_forwarded(self):
        sched = make("adaptive:TSS+FSS", 500, 4, seed=7,
                     explore_frac=0.4)
        assert sched.seed == 7
        assert sched.explore_frac == 0.4

    def test_describe_includes_candidates(self):
        info = make("adaptive:TSS+GSS", 100, 2).describe()
        assert info["params"]["candidates"] == "TSS+GSS"


class TestMalformedSpecs:
    """The satellite fix: errors must list what *would* be valid."""

    def test_unknown_scheme_error_lists_all_names(self):
        with pytest.raises(SchemeError) as exc:
            registry.parse("BOGUS")
        msg = str(exc.value)
        assert "TSS" in msg
        assert "ADAPTIVE" in msg

    def test_unknown_candidate(self):
        with pytest.raises(SchemeError) as exc:
            registry.parse("adaptive:TSS+NOPE")
        msg = str(exc.value)
        assert "NOPE" in msg
        assert "ADAPTIVE" in msg  # the name list rides along

    def test_empty_candidate_set(self):
        with pytest.raises(SchemeError, match="empty candidate"):
            registry.parse("adaptive:")

    def test_empty_candidate_in_list(self):
        with pytest.raises(SchemeError, match="empty candidate"):
            registry.parse("adaptive:TSS+@4")

    @pytest.mark.parametrize("spec", ["adaptive@0", "adaptive@-2",
                                      "adaptive:TSS@x"])
    def test_bad_stage_count(self, spec):
        with pytest.raises(SchemeError, match="stage count"):
            registry.parse(spec)

    def test_garbage_after_adaptive(self):
        with pytest.raises(SchemeError, match="malformed adaptive"):
            registry.parse("adaptively")

    def test_nested_adaptive(self):
        with pytest.raises(SchemeError, match="nests 'adaptive'"):
            registry.parse("adaptive:ADAPTIVE")

    def test_distributed_candidate_lists_fixed_schemes(self):
        with pytest.raises(SchemeError) as exc:
            registry.parse("adaptive:DTSS")
        msg = str(exc.value)
        assert "ACP-driven" in msg
        assert "TSS" in msg and "GSS" in msg

    def test_inline_param_error_lists_parameterizable(self):
        with pytest.raises(SchemeError) as exc:
            registry.parse("TSS(9)")
        msg = str(exc.value)
        assert "CSS" in msg and "GSS" in msg and "BC" in msg

    def test_constructor_rejects_bad_feedback(self):
        """The timing-feedback knob is gone: the policy reads costs
        only, and ``feedback=`` is an unknown keyword."""
        with pytest.raises(TypeError, match="feedback"):
            AdaptiveScheduler(100, 2, feedback="timing")

    def test_constructor_rejects_bad_explore_frac(self):
        with pytest.raises(SchemeError, match="explore_frac"):
            AdaptiveScheduler(100, 2, explore_frac=1.5)

    def test_constructor_rejects_empty_candidates(self):
        with pytest.raises(SchemeError, match="empty"):
            AdaptiveScheduler(100, 2, candidates=())

    def test_constructor_rejects_bad_stages(self):
        with pytest.raises(SchemeError, match="stage count"):
            AdaptiveScheduler(100, 2, stages=0)
