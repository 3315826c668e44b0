"""Property tests: the adaptive guarantees hold over the input space.

Two invariants no policy decision may break:

* the concatenated stages tile ``[0, N)`` exactly once, and each
  order-invariant stage's cut points replay from the decision log
  (``repro.verify.audit_adaptive`` checks both);
* the whole trajectory is a pure function of (spec, seed, workload) --
  same inputs, bit-identical ledger and decision log.

The stage score keeps its PEs in a heap; :func:`scan_efficiency` is
the linear-scan definition it must equal, reward for reward.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive import _balance_efficiency
from repro.core import make
from repro.verify import audit_adaptive
from repro.workloads import GaussianPeakWorkload, UniformWorkload

from .conftest import drain


def scan_efficiency(costs, speeds, overhead):
    """The reference stage score: every chunk re-scans all PEs for the
    one that frees up first, ties to the slowest, then the lowest index
    (what :func:`repro.adaptive._balance_efficiency` computes)."""
    if not costs:
        return 1.0
    speeds = [max(float(s), 1e-12) for s in speeds] or [1.0]
    p = len(speeds)
    loads = [0.0] * p
    for c in costs:
        i = min(
            range(p), key=lambda w: (loads[w] / speeds[w], speeds[w], w)
        )
        loads[i] += c + overhead
    makespan = max(l / s for l, s in zip(loads, speeds))
    if makespan <= 0.0:
        return 1.0
    ideal = sum(loads) / sum(speeds)
    return min(1.0, ideal / makespan)


# Candidate pool for generated specs.  All order-invariant, so the
# audit's per-stage cut-point replay applies to every stage.
POOL = ("TSS", "GSS", "CSS(16)", "CSS(64)", "SS", "BC(8)")


specs = st.builds(
    lambda cands, stages: "adaptive:" + "+".join(cands) + f"@{stages}",
    st.lists(st.sampled_from(POOL), min_size=1, max_size=4,
             unique=True),
    st.integers(min_value=1, max_value=9),
)


@given(
    spec=specs,
    total=st.integers(min_value=1, max_value=3000),
    workers=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=60, deadline=None)
def test_stages_tile_exactly_once_and_conform(spec, total, workers,
                                              seed):
    sched = make(spec, total, workers, seed=seed)
    ledger = drain(sched)
    spans = sorted((s, e) for _w, s, e in ledger)
    cursor = 0
    for start, stop in spans:
        assert start == cursor, f"gap or overlap at {start}"
        assert stop > start
        cursor = stop
    assert cursor == total
    # the audit re-derives the same invariant from the decision log,
    # plus per-stage cut-point conformance against a pure replay
    report = audit_adaptive(ledger, sched, total=total, workers=workers)
    report.raise_if_failed()
    assert "stage-tiling" in report.checks
    assert "stage-conformance" in report.checks


@given(
    spec=specs,
    total=st.integers(min_value=2, max_value=1500),
    workers=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
    peaked=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_same_seed_is_bit_identical(spec, total, workers, seed, peaked):
    wl = (
        GaussianPeakWorkload(total, amplitude=40.0)
        if peaked else UniformWorkload(total)
    )

    def run():
        sched = make(spec, total, workers, seed=seed)
        sched.bind_workload(wl)
        return drain(sched), list(sched.decisions)

    ledger_a, decisions_a = run()
    ledger_b, decisions_b = run()
    assert ledger_a == ledger_b
    assert decisions_a == decisions_b


@given(
    total=st.integers(min_value=10, max_value=1000),
    workers=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=255),
)
@settings(max_examples=30, deadline=None)
def test_stage_windows_abut_in_decision_log(total, workers, seed):
    sched = make("adaptive:TSS+FSS+GSS", total, workers, seed=seed)
    drain(sched)
    cursor = 0
    for d in sched.stage_decisions():
        assert d.base == cursor
        assert d.size >= 1
        cursor += d.size
    assert cursor == total


@given(
    costs=st.lists(
        st.one_of(
            st.just(0.0),
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            st.integers(min_value=1, max_value=64).map(float),
        ),
        max_size=60,
    ),
    # A few distinct speeds so ties are common; zero hits the 1e-12
    # floor, and the list may be empty or a single PE.
    speeds=st.lists(
        st.sampled_from((0.0, 0.5, 1.0, 1.0, 2.0, 3.0, 2.75)),
        max_size=9,
    ),
    overhead=st.sampled_from((0.0, 0.5, 2.0, 1e-9)),
)
@settings(max_examples=300, deadline=None)
def test_heap_score_equals_the_scan(costs, speeds, overhead):
    assert _balance_efficiency(costs, speeds, overhead) == scan_efficiency(
        costs, speeds, overhead
    )
