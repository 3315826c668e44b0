"""The ACP family's stepper against ``next_chunk``, scheduler by scheduler.

:meth:`repro.core.distributed.DistributedSchedulerBase.step` is what
``stepper()`` returns for the family, so every substrate calls it per
request; ``next_chunk(WorkerView(wid, acp=a))`` is the object
protocol's adapter over it.  Twin instances told the same story
-- requests, out-of-band reports (start-up registration, a restart),
zero ACPs, changes of most reports at once -- must answer alike and
keep alike state.  The incremental bookkeeping (``A``, the count of
reports changed since the derivation) must equal its definition after
every operation, and a re-derivation must fire on exactly the request
where more than half of the derivation's reports differ.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WorkerView, make

FAMILY = ("DTSS", "DFSS", "DFISS", "DTFSS")

#: Few distinct values, so that repeats, changes and zeros all happen;
#: None is a request that carries no report (the simple protocol).
ACPS = st.sampled_from([0, 1, 2, 5, 10, 30])
ASKED = st.sampled_from([None, 0, 1, 2, 5, 10, 30])


def state(s):
    return (
        s._acps, s.rederivations, s._cursor, s._step, s.finished,
        s.total_acp, getattr(s, "_served_acp", None),
        getattr(s, "_worker_stage", None),
        getattr(s, "_stage_totals", None), getattr(s, "params", None),
    )


def changed_by_definition(s):
    """Reports that differ from the ones the parameters were derived
    from -- the count the rule compares with half the PEs."""
    base = s._derive_acps
    if base is None:
        return 0
    return sum(1 for wid, acp in s._acps.items() if base.get(wid) != acp)


def check_bookkeeping(s):
    assert s._acp_sum == sum(s._acps.values())
    assert s.total_acp == max(1, sum(s._acps.values()))
    assert s._changed == changed_by_definition(s)


@st.composite
def stories(draw):
    workers = draw(st.integers(min_value=1, max_value=6))
    wid = st.integers(min_value=0, max_value=workers - 1)
    op = st.one_of(
        st.tuples(st.just("ask"), wid, ASKED),
        st.tuples(st.just("observe"), wid, ACPS),
        # Most reports change at once (a load wave): the rule fires.
        st.tuples(st.just("wave"), st.just(0), ACPS),
    )
    return (
        draw(st.sampled_from(FAMILY)),
        draw(st.integers(min_value=0, max_value=3000)),
        workers,
        draw(st.booleans()),  # registered at start-up, or defaults
        draw(st.lists(op, max_size=120)),
    )


@settings(max_examples=200, deadline=None)
@given(stories())
def test_stepper_and_next_chunk_tell_the_same_story(story):
    name, total, workers, register, ops = story
    stepped, adapted = make(name, total, workers), make(name, total, workers)
    step = stepped.stepper(lambda _wid: (1.0, 1))
    assert step == stepped.step
    if register:
        for wid in range(workers):
            for s in (stepped, adapted):
                s.observe_acp(wid, 10 * (1 + wid % 3))
    for kind, wid, acp in ops:
        if kind == "observe":
            for s in (stepped, adapted):
                s.observe_acp(wid, acp)
        elif kind == "wave":
            for w in range(workers // 2 + 1):
                for s in (stepped, adapted):
                    s.observe_acp(w, acp + w)
        else:
            before = stepped.rederivations
            base = stepped._derive_acps
            # A request without a report is sized by the stored one.
            told = stepped._acps.get(wid) if acp is None else acp
            fires = (
                base is not None and not stepped.finished
                and sum(
                    1 for w, a in {**stepped._acps, wid: told}.items()
                    if base.get(w) != a
                ) > len(base) / 2
            )
            got = step(wid, acp)
            chunk = adapted.next_chunk(WorkerView(worker_id=wid, acp=acp))
            assert got == (
                None if chunk is None
                else (chunk.start, chunk.stop, chunk.stage)
            )
            if chunk is not None:
                assert chunk.worker_id == wid
                assert chunk.step == stepped._step
            assert stepped.rederivations == before + fires
        check_bookkeeping(stepped)
        assert state(stepped) == state(adapted)
    # Drain what is left; the loop is covered exactly once either way.
    ends = []
    for s in (stepped, adapted):
        while not s.finished:
            assert s.next_chunk(WorkerView(worker_id=0, acp=7)) is not None
        ends.append(state(s))
    assert ends[0] == ends[1]
    check_bookkeeping(stepped)


def test_a_restart_report_counts_toward_the_next_request():
    """An out-of-band report (a restarted PE re-registering) is what
    tips the "more than half changed" rule; the request after it must
    re-derive, not reuse a verdict taken before it."""
    s = make("DFSS", 1000, 4)
    for wid in range(4):
        s.observe_acp(wid, 10)
    s.step(0, 10)
    assert s.rederivations == 0
    s.step(1, 20)  # one of four changed
    s.observe_acp(2, 20)  # two of four: not more than half
    s.step(0, 10)
    assert s.rederivations == 0
    s.observe_acp(3, 20)  # out of band, three of four
    s.step(0, 10)
    assert s.rederivations == 1 and s._changed == 0

