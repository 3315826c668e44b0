"""Property-based tests (hypothesis) on scheme invariants.

Every scheme, for any loop size and worker count, must:

* conserve iterations (chunks partition ``[0, I)`` exactly, in order);
* emit only positive chunk sizes;
* terminate within ``I`` scheduling steps;
* be deterministic (same inputs -> same trace).

These are the invariants the execution engines rely on; a scheme bug
that breaks any of them corrupts results silently, hence the heavy
artillery.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WorkerView, drain, make, registry
from repro.core.acp import AcpModel

ALL_SCHEMES = [
    "S", "SS", "GSS", "TSS", "FSS", "FISS", "TFSS", "WF",
    "DTSS", "DFSS", "DFISS", "DTFSS",
]

#: The registry schemes that claim ``Scheduler.order_invariant``.
ORDER_INVARIANT = [
    name for name, cls in registry.SCHEMES.items() if cls.order_invariant
]

sizes_and_workers = st.tuples(
    st.integers(min_value=0, max_value=3000),
    st.integers(min_value=1, max_value=16),
)


@st.composite
def scheme_instance(draw):
    name = draw(st.sampled_from(ALL_SCHEMES))
    total, workers = draw(sizes_and_workers)
    return name, total, workers


@given(scheme_instance())
@settings(max_examples=200, deadline=None)
def test_conservation_and_positivity(case):
    name, total, workers = case
    chunks = list(drain(make(name, total, workers)))
    assert sum(c.size for c in chunks) == total
    assert all(c.size >= 1 for c in chunks)
    cursor = 0
    for c in chunks:
        assert c.start == cursor
        cursor = c.stop
    assert len(chunks) <= max(total, 1)


@given(scheme_instance())
@settings(max_examples=100, deadline=None)
def test_determinism(case):
    name, total, workers = case
    first = [c.size for c in drain(make(name, total, workers))]
    second = [c.size for c in drain(make(name, total, workers))]
    assert first == second


@given(
    st.integers(min_value=1, max_value=5000),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=50),
)
@settings(max_examples=100, deadline=None)
def test_css_chunk_count(total, workers, k):
    chunks = list(drain(make("CSS", total, workers, k=k)))
    assert len(chunks) == -(-total // k)  # ceil division


@given(
    st.integers(min_value=1, max_value=5000),
    st.integers(min_value=1, max_value=12),
)
@settings(max_examples=100, deadline=None)
def test_gss_chunks_never_increase(total, workers):
    sizes = [c.size for c in drain(make("GSS", total, workers))]
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))


@given(
    st.integers(min_value=1, max_value=5000),
    st.integers(min_value=1, max_value=12),
)
@settings(max_examples=100, deadline=None)
def test_tss_executable_chunks_never_increase(total, workers):
    sizes = [c.size for c in drain(make("TSS", total, workers))]
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))


@given(
    st.integers(min_value=1, max_value=3000),
    st.lists(
        st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        min_size=1,
        max_size=8,
    ),
)
@settings(max_examples=100, deadline=None)
def test_weighted_static_conserves(total, weights):
    sched = make("S", total, len(weights), weights=weights)
    chunks = list(drain(sched))
    assert sum(c.size for c in chunks) == total


@given(
    st.integers(min_value=0, max_value=2000),
    st.lists(
        st.tuples(
            st.floats(min_value=0.5, max_value=8.0, allow_nan=False),
            st.integers(min_value=1, max_value=6),
        ),
        min_size=1,
        max_size=10,
    ),
    st.sampled_from(["DTSS", "DFSS", "DFISS", "DTFSS"]),
)
@settings(max_examples=150, deadline=None)
def test_distributed_conserve_under_heterogeneous_acp(
    total, profile, name
):
    model = AcpModel(scale=10)
    workers = len(profile)
    sched = make(name, total, workers, acp_model=model)
    views = []
    for wid, (vp, q) in enumerate(profile):
        acp = max(1, model.acp(vp, q))
        sched.observe_acp(wid, acp)
        views.append(WorkerView(wid, virtual_power=vp, run_queue=q, acp=acp))
    chunks = list(drain(sched, views))
    assert sum(c.size for c in chunks) == total
    assert all(c.size >= 1 for c in chunks)


@given(
    st.integers(min_value=1, max_value=2000),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=200),
)
@settings(max_examples=100, deadline=None)
def test_dtss_survives_acp_churn(total, workers, churn_seed):
    """Mid-run ACP changes (re-derivations) never break conservation."""
    import random

    rng = random.Random(churn_seed)
    sched = make("DTSS", total, workers)
    for wid in range(workers):
        sched.observe_acp(wid, rng.randint(1, 40))
    assigned = 0
    guard = 0
    while not sched.finished:
        wid = rng.randrange(workers)
        if rng.random() < 0.3:
            sched.observe_acp(wid, rng.randint(1, 40))
        chunk = sched.next_chunk(
            WorkerView(wid, acp=rng.randint(1, 40))
        )
        if chunk is None:
            break
        assigned += chunk.size
        guard += 1
        assert guard <= 4 * total + workers
    assert assigned == total


@given(scheme_instance())
@settings(max_examples=100, deadline=None)
def test_drain_trace_passes_coverage_audit(case):
    """Any drained scheme trace must tile [0, I) exactly once --
    the same invariant the trace auditor enforces on full runs."""
    from repro.verify import audit_run

    name, total, workers = case
    chunks = list(drain(make(name, total, workers)))
    audit_run(
        [(c.worker_id, c.start, c.stop) for c in chunks], total
    ).raise_if_failed()


@given(
    st.sampled_from(ORDER_INVARIANT),
    st.integers(min_value=1, max_value=2000),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=100, deadline=None)
def test_order_invariant_cut_points(name, total, workers, seed):
    """Every scheme flagged ``order_invariant`` must produce identical
    interval boundaries for *any* request order, including orders in
    which some worker never asks (a fast worker draining the loop).
    The auditor's policy-conformance step trusts the flag and replays
    once, so this is what makes it sound under chaos requeues."""
    import random

    from repro.verify import replay_cut_points

    rng = random.Random(seed)
    order = [rng.randrange(workers) for _ in range(3 * workers + 1)]
    reference = replay_cut_points(name, total, workers)
    shuffled = replay_cut_points(name, total, workers, order=order)
    assert reference == shuffled
