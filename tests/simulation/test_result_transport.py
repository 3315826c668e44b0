"""A result's chunks travel as rows: into ``to_dict``, into the text
``to_json_bytes`` writes and into ``row_dict``, the form a persisted sweep
line holds; across a pickle they travel as that line's text of them.

``LazyChunkList`` pickles its rows' orjson text where that is exact,
and its rows otherwise (and stays lazy on the far side, the text
undecoded until read); a DES result is row-backed like a fast-path one
and crosses a pickle the same way, ``SimResult.to_dict`` builds its
dicts from rows and fields, and ``SimResult.to_json_bytes`` writes
``to_dict`` with orjson (with ``json`` for what orjson cannot write
exactly).  The reference
throughout is the record-object form: ``list(original)`` for the
pickle, ``dataclasses.asdict`` for the dicts, and ``to_dict`` for the
text (read back by ``json``, and orjson's bytes whenever it can write
them).  ``row_dict`` is ``to_dict`` with each chunk dict replaced by
its row, and ``from_dict`` rebuilds the same result from either.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.chaos import FaultPlan
from repro.core import names
from repro.decentral import DECENTRAL_SCHEMES, simulate_decentral
from repro.obs.export import json_bytes
from repro.simulation import (
    ClusterSpec,
    NodeSpec,
    simulate,
    simulate_tree,
)
from repro.simulation.metrics import (
    ChunkRecord,
    LazyChunkList,
    SimResult,
    WorkerMetrics,
)
from repro.workloads import LinearWorkload

from ..conftest import assert_json_text

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
    assert_rows_are_the_dict(result)


def assert_rows_are_the_dict(result: SimResult) -> None:
    """``row_dict`` against ``to_dict``, and back through its text."""
    rows = result.row_dict()
    d = result.to_dict()
    assert list(rows) == list(d)
    assert {k: v for k, v in rows.items() if k != "chunks"} \
        == {k: v for k, v in d.items() if k != "chunks"}
    assert rows["chunks"] == result.chunks.rows()
    text = json_bytes(rows, result.floats()).decode()
    assert_json_text(text, rows)
    back = SimResult.from_dict(json.loads(text))
    assert isinstance(back.chunks, LazyChunkList)
    # ``json.dumps`` writes NaN as NaN: the comparison holds there too.
    assert json.dumps(back.to_dict()) == json.dumps(d)
    assert back.to_json_bytes() == result.to_json_bytes()


def assert_text_is_the_dict(result: SimResult) -> None:
    """``to_json_bytes`` against its definition, parsed and byte for
    byte."""
    for include_results in (False, True):
        assert_json_text(result.to_json_bytes(include_results).decode(),
                         result.to_dict(include_results))


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


#: Ints a row may hold: orjson writes -2**63 .. 2**64 - 1, and a row
#: beyond that crosses a pickle as a row.
_row_ints = st.one_of(
    st.integers(min_value=-2 ** 63, max_value=2 ** 64 - 1),
    st.integers(min_value=2 ** 64, max_value=2 ** 80),
    st.sampled_from([0, 1, 2 ** 63, 2 ** 64 - 1, 2 ** 64, -2 ** 63 - 1]),
)
#: Times as a row holds them: any double, subnormals and -0.0 among
#: them; a NaN or an infinity sends the rows across as rows.
_row_times = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e-310, 2.2250738585072014e-308,
                     1e308, float("nan"), float("inf"), float("-inf")]),
)
_transport_rows = st.one_of(
    st.tuples(_row_ints, _row_ints, _row_ints, _row_times, _row_times,
              _row_ints),
    st.tuples(_row_ints, _row_ints, _row_ints, _row_times, _row_times,
              _row_ints, st.one_of(st.none(), _row_ints)),
)


def _orjson_int(value) -> bool:
    return value is None or -2 ** 63 <= value < 2 ** 64


@given(rows=st.lists(_transport_rows, max_size=12))
def test_rows_cross_a_pickle_exactly(rows):
    """Text where orjson writes every row exactly, rows elsewhere; the
    far side reads the same values of the same types either way."""
    clone = pickle.loads(pickle.dumps(LazyChunkList(list(rows))))
    exact = all(
        math.isfinite(row[3]) and math.isfinite(row[4])
        and all(map(_orjson_int, row[:3] + row[5:]))
        for row in rows
    )
    assert (clone.text() is not None) == exact
    assert len(clone) == len(rows)
    assert clone._rows is None or not exact
    # ``repr`` tells 1 from 1.0 and -0.0 from 0.0, and NaN reads alike.
    assert repr(clone.rows()) == repr(rows)
    assert all(type(row) is tuple for row in clone.rows())


def test_text_crosses_again_undecoded():
    clone = pickle.loads(pickle.dumps(LazyChunkList(list(MASTER_ROWS))))
    again = pickle.loads(pickle.dumps(clone))
    assert clone._rows is None and again._rows is None
    assert again.text() == clone.text() == json.dumps(
        MASTER_ROWS, separators=(",", ":")).encode()
    assert again.rows() == MASTER_ROWS


@pytest.mark.parametrize("row", [
    (0, 0, 5, np.float64(0.5), 1.5, 0),
    (0, 0, 5, 0.5, 1.5, 0, np.int64(3)),
], ids=["np-float64", "np-int64"])
def test_numpy_scalars_cross_as_rows(row):
    clone = pickle.loads(pickle.dumps(LazyChunkList([row])))
    assert clone.text() is None
    assert [tuple(map(type, r)) for r in clone.rows()] \
        == [tuple(map(type, row))]


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
    result = simulate_tree(workload, cluster, weighted=weighted)
    assert_text_is_the_dict(result)
    assert_rows_are_the_dict(result)


@pytest.mark.parametrize("rows", [MASTER_ROWS, DECENTRAL_ROWS],
                         ids=["master-7", "decentral-6"])
def test_from_dict_reads_rows_and_dicts_alike(rows):
    result = _result(rows)
    as_rows = SimResult.from_dict(json.loads(json.dumps(result.row_dict())))
    as_dicts = SimResult.from_dict(json.loads(result.to_json_bytes()))
    assert as_rows == as_dicts == result
    assert as_rows.chunks.rows() == list(rows)
    assert all(type(row) is tuple for row in as_rows.chunks.rows())


@pytest.mark.parametrize("chunk", [
    [0, 0, 5, 0.0, 1.5], [0, 0, 5, 0.0, 1.5, 0, None, 1], [], "abcdef", 7,
], ids=["5", "8", "0", "str", "int"])
def test_from_dict_refuses_a_chunk_that_is_no_row(chunk):
    d = _result(MASTER_ROWS).row_dict()
    d["chunks"] = [list(MASTER_ROWS[0]), chunk]
    with pytest.raises(ValueError, match="6 or 7 fields"):
        SimResult.from_dict(d)


def test_to_json_carries_results_on_request(workload, cluster):
    result = simulate("GSS", workload, cluster, collect_results=True)
    assert result.results is not None
    assert "results" not in json.loads(result.to_json_bytes())
    assert json.loads(result.to_json_bytes(True))["results"] \
        == result.results.tolist()
    assert_text_is_the_dict(result)


def _result(rows=(), t_p=1.0, name="n0") -> SimResult:
    return SimResult(scheme="S", workers=[WorkerMetrics(name=name)],
                     t_p=t_p, chunks=LazyChunkList(list(rows)))


def test_to_json_is_orjson_text():
    # Exponents without "+" or leading zeros, non-ASCII as raw UTF-8:
    # orjson's form, where ``json`` would write 1e+16, 1e-05, \u00e9.
    text = _result([(0, 0, 5, 1e-5, 1e16, 0)],
                   name="caf\u00e9").to_json_bytes().decode()
    assert "1e-05" not in text and "1e+16" not in text
    assert '"name":"caf\u00e9"' in text
    assert_text_is_the_dict(_result([(0, 0, 5, 1e-5, 1e16, 0)]))


@pytest.mark.parametrize("result, token", [
    # orjson would write a non-finite float as ``null``.
    (_result(t_p=float("nan")), '"t_p":NaN'),
    (_result([(0, 0, 5, 0.0, float("inf"), 0)]), '"completed_at":Infinity'),
    (_result([(0, 0, 5, np.float64("-inf"), 1.0, 0)]),
     '"assigned_at":-Infinity'),
    # orjson refuses these outright.
    (_result([(0, 0, 2 ** 64, 0.0, 1.0, 0, -2 ** 63 - 1)]),
     '"stop":18446744073709551616'),
    (_result(name="\ud800"), '"name":"\\ud800"'),
], ids=["nan", "inf", "np-inf", "int-beyond-64-bits", "lone-surrogate"])
def test_to_json_falls_back_to_json_exactly_there(result, token):
    text = result.to_json_bytes().decode()
    assert token in text
    text.encode("utf-8")  # a reply body or a JSONL line
    assert_text_is_the_dict(result)
    assert_rows_are_the_dict(result)


#: Ints orjson writes; one beyond 64 bits (or a lone surrogate) sends
#: the whole text to ``json``, so those are the direct cases above.
_ints = st.one_of(
    st.integers(min_value=0, max_value=10**12),
    st.just(2 ** 64 - 1),
)
#: A time as a row may hold it: a float of any magnitude (orjson and
#: ``repr`` part ways below 1e-4 and from 1e16), an ``np.float64``, an
#: int, or a non-finite value, which goes through ``json``.
_times = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([0.0, -0.0, 1e-5, 9.99e-5, 1e16, 1.5e300, 1e-320]),
)
_rows = st.one_of(
    st.tuples(_ints, _ints, _ints, _times, _times, _ints),
    st.tuples(_ints, _ints, _ints, _times, _times, _ints,
              st.one_of(st.none(), _ints)),
)
_names = st.one_of(st.text(max_size=8), st.just("caf\u00e9 \u2603"))


@given(
    rows=st.lists(_rows, max_size=12),
    materialized=st.booleans(),
    t_p=_times,
    t_wait=_times,
    scheme=_names,
    results=st.one_of(st.none(), st.lists(st.floats(), max_size=5)),
)
def test_to_json_is_to_dict_for_any_rows(rows, materialized, t_p, t_wait,
                                         scheme, results):
    result = SimResult(
        scheme=scheme,
        workers=[WorkerMetrics(name=scheme, t_wait=t_wait, t_comp=1.5,
                               chunks=2)],
        t_p=t_p,
        chunks=LazyChunkList(rows),
        results=None if results is None else np.asarray(results),
    )
    if materialized:
        assert len(list(result.chunks)) == len(rows)
    assert_text_is_the_dict(result)
    assert_rows_are_the_dict(result)
