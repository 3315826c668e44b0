"""Unit tests for the pure chunk calculators."""

from __future__ import annotations

import pickle

import pytest

from repro.core import drain, make
from repro.core.base import SchemeError
from repro.decentral import (
    CALCULATORS,
    DECENTRAL_SCHEMES,
    make_calculator,
)
from repro.verify import replay_cut_points

GRID = [(0, 3), (1, 1), (1, 4), (7, 3), (64, 4), (100, 7), (1000, 4),
        (1000, 9), (2048, 8), (5, 9)]


class TestCalculatorGeometry:
    @pytest.mark.parametrize("scheme", DECENTRAL_SCHEMES)
    @pytest.mark.parametrize("total,p", GRID)
    def test_sizes_cover_the_loop_exactly(self, scheme, total, p):
        calc = make_calculator(scheme, total, p)
        sizes = calc.sizes()
        assert sum(sizes) == total
        assert all(s >= 1 for s in sizes)
        assert calc.n_chunks == len(sizes)

    @pytest.mark.parametrize("scheme", DECENTRAL_SCHEMES)
    @pytest.mark.parametrize("total,p", GRID)
    def test_intervals_are_contiguous(self, scheme, total, p):
        calc = make_calculator(scheme, total, p)
        cursor = 0
        for i in range(calc.n_chunks):
            start, stop = calc.interval(i)
            assert start == cursor
            assert stop > start
            cursor = stop
        assert cursor == total

    @pytest.mark.parametrize("scheme", DECENTRAL_SCHEMES)
    @pytest.mark.parametrize("total,p", GRID)
    def test_boundaries_match_replay(self, scheme, total, p):
        calc = make_calculator(scheme, total, p)
        assert calc.boundaries() == replay_cut_points(scheme, total, p)

    @pytest.mark.parametrize("scheme", DECENTRAL_SCHEMES)
    def test_sizes_match_master_drain(self, scheme):
        # Ordinal-by-ordinal, not just cut-point-set, equality with the
        # stateful scheduler under round-robin service.
        total, p = 1000, 4
        master = [c.size for c in drain(make(scheme, total, p))]
        assert make_calculator(scheme, total, p).sizes() == master

    @pytest.mark.parametrize("scheme", DECENTRAL_SCHEMES)
    def test_chunk_zero_after_exhaustion(self, scheme):
        calc = make_calculator(scheme, 50, 3)
        assert calc.chunk(50) == 0
        assert calc.chunk(51) == 0

    def test_negative_boundary_rejected(self):
        with pytest.raises(SchemeError):
            make_calculator("TSS", 100, 4).chunk(-1)

    def test_interval_beyond_loop_rejected(self):
        calc = make_calculator("CSS(10)", 100, 4)
        with pytest.raises(SchemeError):
            calc.interval(calc.n_chunks)

    def test_empty_loop(self):
        calc = make_calculator("GSS", 0, 4)
        assert calc.n_chunks == 0
        assert calc.boundaries() == frozenset()
        assert calc.sizes() == []


class TestStagedCalculators:
    def test_stage_of_follows_round_robin(self):
        calc = make_calculator("FSS", 1000, 4)
        for i in range(calc.n_chunks):
            assert calc.stage_of(i) == i // 4 + 1

    def test_stage_of_range_checked(self):
        calc = make_calculator("FSS", 1000, 4)
        with pytest.raises(SchemeError):
            calc.stage_of(calc.n_chunks)


class TestFactoryAndParams:
    def test_inline_parameters(self):
        assert make_calculator("css(32)", 1000, 4).scheduler.k == 32
        assert make_calculator("GSS(8)", 1000, 4).scheduler.min_chunk == 8
        assert make_calculator("FISS(5)", 1000, 4).scheduler.stages == 5

    def test_keyword_parameters(self):
        calc = make_calculator("TSS", 1000, 4, first=100, last=4)
        assert calc.scheduler.params.first == 100
        assert calc.boundaries() == replay_cut_points(
            "TSS", 1000, 4, first=100, last=4
        )

    @pytest.mark.parametrize("name", ["S", "BC", "WF", "DTSS", "DFSS",
                                      "DFISS", "DTFSS"])
    def test_non_decentralizable_schemes_refused(self, name):
        with pytest.raises(SchemeError, match="no decentral form"):
            make_calculator(name, 1000, 4)

    def test_unknown_scheme_refused(self):
        with pytest.raises(SchemeError, match="unknown scheme"):
            make_calculator("NOPE", 1000, 4)

    def test_chunk_size_one_shot(self):
        assert make_calculator("CSS(25)", 100, 4).chunk(0) == 25
        # final clip
        assert make_calculator("CSS(25)", 100, 4).chunk(90) == 10
        assert make_calculator("SS", 100, 4).chunk(99) == 1

    def test_registry_and_calculators_agree_on_names(self):
        from repro.core import registry

        assert set(CALCULATORS) <= set(registry.SCHEMES)

    @pytest.mark.parametrize("scheme", DECENTRAL_SCHEMES)
    def test_calculators_pickle(self, scheme):
        # The calculator carries its scheme object into decentral
        # worker processes, so the object itself must pickle --
        # including the rounding callables FSS holds.
        variants = [{}]
        if scheme == "FSS":
            variants += [{"rounding": "ceil"}, {"rounding": "floor"},
                         {"alpha": 3.0}]
        for kwargs in variants:
            calc = make_calculator(scheme, 500, 4, **kwargs)
            clone = pickle.loads(pickle.dumps(calc))
            assert clone.sizes() == calc.sizes(), kwargs
