"""A result's chunks travel as rows: across a pickle, into ``to_dict``
and into the text ``to_json`` writes.

``LazyChunkList`` pickles its field rows (and stays lazy on the far
side), a DES result is row-backed like a fast-path one and crosses a
pickle the same way, ``SimResult.to_dict`` builds its dicts from rows
and fields, and ``SimResult.to_json`` formats the same rows without
the dicts.  The reference throughout is the record-object form:
``list(original)`` for the pickle, ``dataclasses.asdict`` for the
dicts, and ``to_dict`` through ``json.dumps`` for the text.
"""

from __future__ import annotations

import dataclasses
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.chaos import FaultPlan
from repro.core import names
from repro.decentral import DECENTRAL_SCHEMES, simulate_decentral
from repro.simulation import (
    ClusterSpec,
    NodeSpec,
    simulate,
    simulate_tree,
)
from repro.simulation import metrics
from repro.simulation.metrics import (
    ChunkRecord,
    LazyChunkList,
    SimResult,
    WorkerMetrics,
)
from repro.workloads import LinearWorkload

MASTER_ROWS = [(0, 0, 5, 0.0, 1.5, 0, None), (1, 5, 9, 0.25, 2.0, 1, 3)]
DECENTRAL_ROWS = [(0, 0, 5, 0.0, 1.5, 0), (1, 5, 9, 0.25, 2.0, 1)]

#: ``"auto"`` takes the fast path wherever the scheme allows it.
ENGINES = pytest.mark.parametrize("fast", ["auto", False],
                                  ids=["fast", "des"])


@pytest.fixture(scope="module")
def workload():
    return LinearWorkload(300, slope=0.5)


@pytest.fixture(scope="module")
def cluster():
    return ClusterSpec(nodes=[
        NodeSpec(name=f"n{i}", speed=60.0 + 25.0 * i,
                 virtual_power=1.0 + 0.5 * i)
        for i in range(4)
    ])


def asdict_form(result: SimResult) -> dict:
    """``to_dict`` as it was: one ``dataclasses.asdict`` per record."""
    return {
        "scheme": result.scheme,
        "t_p": result.t_p,
        "rederivations": result.rederivations,
        "events": result.events,
        "workers": [dataclasses.asdict(w) for w in result.workers],
        "chunks": [dataclasses.asdict(c) for c in result.chunks],
    }


def typed(value):
    """``value`` with the type of every leaf beside it."""
    if isinstance(value, dict):
        return {k: typed(v) for k, v in value.items()}
    if isinstance(value, list):
        return [typed(v) for v in value]
    return (type(value), value)


def assert_same_dicts(result: SimResult) -> None:
    d = result.to_dict()
    reference = asdict_form(result)
    assert typed(d) == typed(reference)
    # Key order is part of the JSONL record's bytes.
    assert json.dumps(d) == json.dumps(reference)
    back = SimResult.from_dict(d)
    assert isinstance(back.chunks, LazyChunkList)
    assert back.chunks._records is None
    assert back == result
    assert back.to_dict() == d
    assert_text_is_the_dict(result)
    assert_text_is_the_dict(back)


def compact(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


def assert_text_is_the_dict(result: SimResult) -> None:
    """``to_json`` against its definition, parsed and byte for byte."""
    for include_results in (False, True):
        text = result.to_json(include_results)
        d = result.to_dict(include_results)
        assert text == compact(d)
        assert json.loads(text) == d


@pytest.mark.parametrize("rows", [MASTER_ROWS, DECENTRAL_ROWS],
                         ids=["master-7", "decentral-6"])
@pytest.mark.parametrize("materialized", [False, True])
def test_lazy_chunk_list_pickles_as_rows(rows, materialized):
    original = LazyChunkList(list(rows))
    if materialized:
        assert original[0].size == 5
        # Records are frozen views: the rows outlive them.
        assert original.rows() == list(rows)
    clone = pickle.loads(pickle.dumps(original))
    assert isinstance(clone, LazyChunkList)
    assert clone._records is None  # still lazy after the trip
    assert len(clone) == len(rows)
    assert list(clone) == list(original)
    assert list(clone) == [ChunkRecord(*row) for row in rows]


def test_records_are_frozen_views_of_the_rows():
    chunks = LazyChunkList(list(MASTER_ROWS))
    with pytest.raises(dataclasses.FrozenInstanceError):
        chunks[0].stage = 7
    edited = dataclasses.replace(chunks[0], stage=7)
    assert edited.stage == 7 and chunks[0].stage == MASTER_ROWS[0][5]
    assert chunks.rows() == list(MASTER_ROWS)


def test_des_result_crosses_a_pickle_as_rows(workload, cluster):
    result = simulate("TSS", workload, cluster, fast=False)
    # Row-backed on every path (the suite's auditor has already read
    # the records by now, so laziness is asserted on the clone only).
    assert isinstance(result.chunks, LazyChunkList)
    rows = list(result.chunks.rows())
    assert rows and all(type(row) is tuple for row in rows)
    clone = pickle.loads(pickle.dumps(result))
    assert isinstance(clone.chunks, LazyChunkList)
    assert clone.chunks._records is None
    assert clone.chunks.rows() == rows
    assert clone == result
    assert list(result.chunks) == [ChunkRecord(*row) for row in rows]


@ENGINES
@pytest.mark.parametrize("scheme", names())
def test_to_dict_equals_asdict_form_master(workload, cluster, scheme,
                                           fast):
    assert_same_dicts(simulate(scheme, workload, cluster, fast=fast))


@ENGINES
@pytest.mark.parametrize("scheme", DECENTRAL_SCHEMES)
def test_to_dict_equals_asdict_form_decentral(workload, cluster, scheme,
                                              fast):
    assert_same_dicts(
        simulate_decentral(scheme, workload, cluster, fast=fast))


def test_to_dict_equals_asdict_form_under_chaos(workload, cluster):
    plan = FaultPlan.random(7, workers=cluster.size, horizon=2.0)
    assert plan.events
    assert_same_dicts(simulate("FSS", workload, cluster, chaos=plan))


@pytest.mark.parametrize("weighted", [False, True])
def test_to_json_is_to_dict_tree(workload, cluster, weighted):
    assert_text_is_the_dict(
        simulate_tree(workload, cluster, weighted=weighted))


def test_to_json_writes_ordinary_rows_itself():
    # The fast arm, not the definition, encodes what engines produce.
    for rows in (MASTER_ROWS, DECENTRAL_ROWS):
        assert metrics._chunks_text(rows)
    with pytest.raises(ValueError):
        metrics._chunks_text([(0, 0, 5, 0.0, float("inf"), 0)])
    with pytest.raises(TypeError):
        metrics._chunks_text([(0, 0, 5, 0, 1.5, 0)])


def test_to_json_carries_results_on_request(workload, cluster):
    result = simulate("GSS", workload, cluster, collect_results=True)
    assert result.results is not None
    assert "results" not in json.loads(result.to_json())
    assert json.loads(result.to_json(True))["results"] \
        == result.results.tolist()
    assert_text_is_the_dict(result)


_ints = st.integers(min_value=0, max_value=10**12)
#: A time as a row may hold it: a finite float mostly (``np.float64``
#: is one); an int or an infinity goes through the definition.
_times = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([float("inf"), float("-inf"), 0.0, -0.0, 1e-320]),
)
_rows = st.one_of(
    st.tuples(_ints, _ints, _ints, _times, _times, _ints),
    st.tuples(_ints, _ints, _ints, _times, _times, _ints,
              st.one_of(st.none(), _ints)),
)


@given(
    rows=st.lists(_rows, max_size=12),
    materialized=st.booleans(),
    t_p=_times,
    scheme=st.text(max_size=8),
    results=st.one_of(
        st.none(),
        st.lists(st.floats(allow_nan=False), max_size=5),
    ),
)
def test_to_json_is_to_dict_for_any_rows(rows, materialized, t_p,
                                         scheme, results):
    result = SimResult(
        scheme=scheme,
        workers=[WorkerMetrics(name=scheme, t_comp=1.5, chunks=2)],
        t_p=t_p,
        chunks=LazyChunkList(rows),
        results=None if results is None else np.asarray(results),
    )
    if materialized:
        assert len(list(result.chunks)) == len(rows)
    assert_text_is_the_dict(result)
