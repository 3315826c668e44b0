"""Kernel/ladder equivalence proof (hypothesis).

The lockstep kernel (``repro.core.kernel``) tabulates every pure
chunk ladder once: the decentral counter engine reads
``ChunkCalculator.interval`` per fetched ordinal, and the decentral
fast path and the ledger read ``evaluate_ladder``, the same table as
arrays.  These tests pin the kernel against the most literal reference
we have -- ``repro.verify.replay_cut_points``, a request-by-request
replay through ``Scheduler.stepper`` -- and against a drained
scheduler, for every registered pure scheme over random ``(N, P)``,
including the degenerate shapes (``P=1``, ``N<P``, ``N=0``, inline
parameters).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import drain, make
from repro.core.kernel import (
    CALCULATORS,
    SchemeError,
    evaluate_ladder,
    make_calculator,
)
from repro.verify import replay_cut_points

#: Spellings that exercise the inline-parameter parser as well as the
#: bare registry names.
PURE_SCHEMES = sorted(CALCULATORS) + ["CSS(7)", "CSS(32)", "GSS(4)"]

sizes_and_workers = st.tuples(
    st.integers(min_value=0, max_value=3000),
    st.integers(min_value=1, max_value=16),
)


@st.composite
def kernel_case(draw):
    name = draw(st.sampled_from(PURE_SCHEMES))
    total, workers = draw(sizes_and_workers)
    return name, total, workers


@given(kernel_case())
@settings(max_examples=250, deadline=None)
def test_ladder_matches_step_by_step_replay(case):
    """Kernel boundaries == literal scheduler replay."""
    name, total, workers = case
    calc = make_calculator(name, total, workers)
    assert calc.boundaries() == replay_cut_points(name, total, workers)


@given(kernel_case())
@settings(max_examples=250, deadline=None)
def test_ladder_sizes_match_drained_scheduler(case):
    """Chunk-by-chunk sizes (not just boundaries) match a drain."""
    name, total, workers = case
    ladder = evaluate_ladder(name, total, workers)
    chunks = list(drain(make(name, total, workers)))
    assert [int(s) for s in ladder.sizes] == [c.size for c in chunks]
    assert [int(s) for s in ladder.starts] == [c.start for c in chunks]
    assert [int(s) for s in ladder.stops] == [c.stop for c in chunks]


@given(kernel_case())
@settings(max_examples=250, deadline=None)
def test_ladder_tiles_the_loop(case):
    """Invariants: sizes >= 1, intervals tile [0, N) in order."""
    name, total, workers = case
    ladder = evaluate_ladder(name, total, workers)
    assert int(ladder.sizes.sum()) == total
    if ladder.n_chunks:
        assert int(ladder.sizes.min()) >= 1
        assert int(ladder.starts[0]) == 0
        assert int(ladder.stops[-1]) == total
        assert np.array_equal(ladder.starts[1:], ladder.stops[:-1])


@pytest.mark.parametrize("name", sorted(CALCULATORS))
@pytest.mark.parametrize(
    "total,workers",
    [
        (0, 3),     # empty loop
        (1, 1),     # single iteration, single worker
        (5, 1),     # P=1 collapses every scheme to few fat chunks
        (3, 8),     # N < P: some workers never get a chunk
        (17, 17),   # N == P
        (1000, 7),  # long ladder with an uneven tail
    ],
)
def test_degenerate_shapes(name, total, workers):
    calc = make_calculator(name, total, workers)
    assert calc.boundaries() == replay_cut_points(name, total, workers)
    assert int(evaluate_ladder(calc).sizes.sum()) == total


def test_custom_order_bypasses_kernel():
    """A caller-supplied service order replays request by request (the
    kernel has no notion of request interleaving); any round-robin
    permutation is still the lockstep ladder, even for a per-PE stage
    ladder like FSS's."""
    total, workers = 100, 4
    reversed_order = list(range(workers))[::-1]
    via_order = replay_cut_points("FSS", total, workers,
                                  order=reversed_order * total)
    assert via_order == make_calculator("FSS", total, workers).boundaries()


def test_impure_schemes_rejected():
    for name in ["S", "BC", "WF", "DTSS", "DFSS", "DFISS", "DTFSS"]:
        with pytest.raises(SchemeError):
            make_calculator(name, 100, 4)
