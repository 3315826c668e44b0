"""Tests for the scheme registry (repro.core.registry)."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.core import (
    SCHEMES,
    SchemeError,
    Scheduler,
    WorkerView,
    drain,
    make,
    make_many,
    names,
    register,
)


class TestMake:
    def test_all_registered_names_construct(self):
        for name in names():
            sched = make(name, 100, 4)
            assert isinstance(sched, Scheduler)
            assert sched.total == 100

    def test_case_insensitive(self):
        assert make("tss", 100, 4).name == "TSS"
        assert make("dFiSs", 100, 4).name == "DFISS"

    def test_unknown_scheme(self):
        with pytest.raises(SchemeError):
            make("XYZ", 100, 4)

    def test_inline_parameters(self):
        assert make("CSS(16)", 100, 4).k == 16
        assert make("GSS(8)", 100, 4).min_chunk == 8
        assert make("BC(4)", 100, 4).block == 4

    def test_inline_parameter_on_wrong_scheme(self):
        with pytest.raises(SchemeError):
            make("TSS(5)", 100, 4)

    def test_kwargs_forwarded(self):
        assert make("FSS", 100, 4, alpha=3.0).alpha == 3.0

    def test_explicit_kwarg_beats_inline_default(self):
        sched = make("CSS(16)", 100, 4)
        assert sched.k == 16


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("clone", [
    copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s)),
], ids=["deepcopy", "pickle"])
def test_copied_scheduler_continues_the_same_sequence(scheme, clone):
    """All loop state lives on the instance
    (``verify.replay_cut_points`` deep-copies schedulers): a copy
    taken mid-run continues exactly as the original does."""
    total, p = 500, 4
    views = [WorkerView(i, virtual_power=1.0 + i, acp=10 * (1 + i))
             for i in range(p)]
    original = make(scheme, total, p)
    for i in range(3):
        original.next_chunk(views[i % p])
    copied = clone(original)
    rest = list(drain(original, views))
    assert rest == list(drain(copied, views))
    assert rest and rest[-1].stop == total


class TestMakeMany:
    def test_fresh_instances(self):
        batch = make_many(["TSS", "FSS"], 100, 4)
        assert set(batch) == {"TSS", "FSS"}
        assert batch["TSS"] is not make("TSS", 100, 4)


class TestRegister:
    def test_custom_scheme(self):
        class Halver(Scheduler):
            name = "HALVE"

            def _chunk_size(self, worker: WorkerView) -> int:
                return max(1, self.remaining // 2)

        register("halve", Halver)
        try:
            sched = make("HALVE", 100, 2)
            sizes = []
            while not sched.finished:
                sizes.append(sched.next_chunk(WorkerView(0)).size)
            assert sizes[0] == 50
            assert sum(sizes) == 100
        finally:
            SCHEMES.pop("HALVE", None)

    def test_empty_name_rejected(self):
        with pytest.raises(SchemeError):
            register("  ", Scheduler)
