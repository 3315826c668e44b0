"""Schema tests: the unified event model itself."""

from __future__ import annotations

import itertools
import pickle

import pytest

from repro.obs import (
    EVENT_KINDS,
    LIFECYCLE_KINDS,
    SOURCES,
    EventList,
    ObsEvent,
    SchemaError,
    validate_event,
)


def test_lifecycle_spine_is_a_subset_of_kinds():
    assert LIFECYCLE_KINDS <= EVENT_KINDS
    assert LIFECYCLE_KINDS == {"request", "assign", "compute", "result"}


def test_every_substrate_has_a_source_tag():
    assert {
        "sim.master", "sim.tree", "sim.decentral",
        "runtime.master", "runtime.worker", "runtime.decentral",
        "chaos", "service",
    } == SOURCES


def test_minimal_event_validates():
    ev = ObsEvent("request", "sim.master", 0.0, worker=2)
    assert validate_event(ev) is ev


def test_interval_kinds_require_nonempty_interval():
    for kind in ("compute", "result", "steal", "repair"):
        with pytest.raises(SchemaError):
            validate_event(ObsEvent(kind, "sim.master", 0.0, worker=0))
        with pytest.raises(SchemaError):
            validate_event(
                ObsEvent(kind, "sim.master", 0.0, worker=0,
                         start=5, stop=5)
            )
        validate_event(
            ObsEvent(kind, "sim.master", 0.0, worker=0, start=5, stop=6)
        )


@pytest.mark.parametrize("bad", [
    ObsEvent("banana", "sim.master", 0.0),
    ObsEvent("request", "sim.banana", 0.0),
    ObsEvent("request", "sim.master", -1.0),
    ObsEvent("fault", "chaos", 0.0),              # fault without detail
    ObsEvent("assign", "sim.master", 0.0, start=9, stop=3),
    ObsEvent("compute", "sim.master", 0.0, start=0, stop=4, value=-2.0),
])
def test_invalid_events_raise(bad):
    with pytest.raises(SchemaError):
        validate_event(bad)


def test_dict_round_trip_is_exact():
    ev = ObsEvent("compute", "runtime.worker", 1.25, worker=3,
                  start=10, stop=20, stage=2, acp=7, value=0.5,
                  detail="x", wall=123.0)
    assert ObsEvent.from_dict(ev.to_dict()) == ev


def test_dict_form_omits_defaults():
    doc = ObsEvent("request", "sim.master", 0.5).to_dict()
    assert doc == {"kind": "request", "source": "sim.master", "t": 0.5}


def test_from_dict_missing_required_field_raises():
    with pytest.raises(SchemaError):
        ObsEvent.from_dict({"kind": "request", "t": 0.0})


def test_events_are_immutable_and_picklable():
    ev = ObsEvent("result", "sim.tree", 2.0, worker=1, start=0, stop=4)
    with pytest.raises(AttributeError):
        ev.t = 3.0  # type: ignore[misc]
    with pytest.raises(AttributeError):
        ev.extra = 1  # type: ignore[attr-defined]
    twin = ObsEvent("result", "sim.tree", 2.0, 1, 0, 4)
    assert twin == ev and hash(twin) == hash(ev)
    assert len({ev, twin}) == 1
    moved = ev._replace(t=3.0, detail="tenant=a")
    assert (moved.t, moved.detail, moved.start) == (3.0, "tenant=a", 0)
    assert moved != ev and ev.t == 2.0
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(ev, protocol=proto))
        assert type(back) is ObsEvent and back == ev
    assert ObsEvent.from_dict(ev.to_dict()) == ev


#: A value for every optional field, each legal beside the others.
_OPTIONAL = {
    "worker": 2, "start": 3, "stop": 9, "stage": 1, "acp": 7,
    "value": 0.25, "detail": "global", "wall": 1700000000.5,
}


@pytest.mark.parametrize("kind", ["request", "fetch-add", "fault"])
def test_full_width_constructor_equals_the_keyword_one(kind):
    """A row -- the eleven fields by position, as the per-chunk sites
    write them -- read through an ``EventList`` against its
    definition, ``ObsEvent(**kw)``, for every optional field set and
    unset."""
    unset = ObsEvent._field_defaults
    for r in range(len(_OPTIONAL) + 1):
        for chosen in itertools.combinations(_OPTIONAL, r):
            kw = {name: _OPTIONAL[name] for name in chosen}
            reference = ObsEvent(kind=kind, source="sim.master", t=1.5,
                                 **kw)
            row = (
                kind, "sim.master", 1.5,
                *(kw.get(name, unset[name]) for name in _OPTIONAL),
            )
            built = EventList([row])[0]
            assert type(built) is ObsEvent
            assert built == reference
            assert built.to_dict() == reference.to_dict()
            assert ObsEvent.to_dict(row) == reference.to_dict()
            if kind != "fault" or "detail" in kw:
                assert validate_event(built) is built
    assert tuple(_OPTIONAL) == ObsEvent._fields[3:]
