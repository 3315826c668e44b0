"""Tests for Tree Scheduling combinatorics (repro.core.tree)."""

from __future__ import annotations

import pytest

from repro.core import (
    SchemeError,
    TreePartition,
    partner_order,
)


class TestPartnerOrder:
    def test_power_of_two_pairs(self):
        assert partner_order(0, 8) == [1, 2, 4, 3, 5, 6, 7]

    def test_every_partner_appears_once(self):
        for p in (1, 2, 3, 5, 8, 13):
            for i in range(p):
                partners = partner_order(i, p)
                assert sorted(partners) == [
                    j for j in range(p) if j != i
                ]

    def test_symmetry_at_level_zero(self):
        # XOR pairing is symmetric: 0's first partner is 1 and vice versa.
        assert partner_order(0, 8)[0] == 1
        assert partner_order(1, 8)[0] == 0

    def test_single_worker_has_no_partners(self):
        assert partner_order(0, 1) == []

    def test_out_of_range_rejected(self):
        with pytest.raises(SchemeError):
            partner_order(5, 4)
        with pytest.raises(SchemeError):
            partner_order(0, 0)


class TestTreePartition:
    def test_even_blocks_cover_loop(self):
        blocks = TreePartition.even(100, 3).blocks()
        assert blocks[0][0] == 0
        assert blocks[-1][1] == 100
        sizes = [hi - lo for lo, hi in blocks]
        assert sum(sizes) == 100
        assert max(sizes) - min(sizes) <= 1

    def test_weighted_blocks_proportional(self):
        part = TreePartition.weighted(1000, [3.0, 3.0, 1.0, 1.0])
        sizes = [hi - lo for lo, hi in part.blocks()]
        assert sizes == [375, 375, 125, 125]

    def test_blocks_are_contiguous(self):
        blocks = TreePartition.weighted(997, [1.0, 2.0, 3.0]).blocks()
        for (a, b), (c, _d) in zip(blocks, blocks[1:]):
            assert b == c

    def test_empty_loop(self):
        blocks = TreePartition.even(0, 4).blocks()
        assert all(hi == lo for lo, hi in blocks)

    def test_weight_count_mismatch(self):
        with pytest.raises(SchemeError):
            TreePartition(total=10, workers=3, weights=(1.0, 2.0))
