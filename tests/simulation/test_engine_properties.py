"""Property-based tests of the DES engines (hypothesis).

For arbitrary small clusters, load traces, and workloads, every engine
must conserve the loop, keep time monotone, and be deterministic.
These are the end-to-end versions of the scheme-level invariants in
``tests/core/test_properties.py``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import (
    ClusterSpec,
    ConstantLoad,
    NodeSpec,
    RandomLoad,
    simulate,
    simulate_tree,
)
from repro.workloads import GaussianPeakWorkload, RandomWorkload

ENGINE_SCHEMES = ["SS", "GSS", "TSS", "FSS", "FISS", "TFSS",
                  "DTSS", "DFSS", "DFISS", "DTFSS"]


@st.composite
def cluster_strategy(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    nodes = []
    for i in range(n):
        speed = draw(st.floats(min_value=10.0, max_value=1000.0,
                               allow_nan=False))
        q = draw(st.integers(min_value=1, max_value=4))
        latency = draw(st.floats(min_value=0.0, max_value=0.01,
                                 allow_nan=False))
        nodes.append(
            NodeSpec(
                name=f"n{i}",
                speed=speed,
                latency=latency,
                bandwidth=draw(st.floats(min_value=1e5, max_value=1e8,
                                         allow_nan=False)),
                load=ConstantLoad(q),
            )
        )
    return ClusterSpec(nodes=nodes)


@st.composite
def workload_strategy(draw):
    size = draw(st.integers(min_value=0, max_value=400))
    kind = draw(st.sampled_from(["peak", "random"]))
    if kind == "peak":
        return GaussianPeakWorkload(size, amplitude=draw(
            st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
        ))
    return RandomWorkload(size, seed=draw(
        st.integers(min_value=0, max_value=100)
    ))


@given(
    st.sampled_from(ENGINE_SCHEMES),
    workload_strategy(),
    cluster_strategy(),
)
@settings(max_examples=80, deadline=None)
def test_master_engine_conserves(scheme, workload, cluster):
    result = simulate(scheme, workload, cluster)
    assert result.total_iterations == workload.size
    assert result.t_p >= 0
    for chunk in result.chunks:
        assert chunk.completed_at >= chunk.assigned_at
    for w in result.workers:
        assert w.t_com >= 0 and w.t_wait >= -1e-9 and w.t_comp >= 0


@given(workload_strategy(), cluster_strategy(), st.booleans())
@settings(max_examples=50, deadline=None)
def test_tree_engine_conserves(workload, cluster, weighted):
    result = simulate_tree(workload, cluster, weighted=weighted,
                           grain=4)
    assert result.total_iterations == workload.size


@given(
    st.sampled_from(["TSS", "DTSS", "DFSS"]),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=50),
)
@settings(max_examples=40, deadline=None)
def test_engine_deterministic_under_random_load(
    scheme, size, n_nodes, seed
):
    def build():
        nodes = [
            NodeSpec(
                name=f"n{i}",
                speed=100.0 * (i + 1),
                load=RandomLoad(seed=seed + i),
            )
            for i in range(n_nodes)
        ]
        return ClusterSpec(nodes=nodes)

    wl = GaussianPeakWorkload(size, amplitude=10.0)
    a = simulate(scheme, wl, build())
    b = simulate(scheme, wl, build())
    assert a.t_p == b.t_p
    assert [c.size for c in a.chunks] == [c.size for c in b.chunks]
