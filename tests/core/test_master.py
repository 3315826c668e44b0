"""``MasterState``, the master core, driven without a clock or transport.

Every master (the DES, the process runtime, MPI) serves requests
through it; these tests hold its decisions and the rows it writes.
"""

from __future__ import annotations

from repro.core import make
from repro.core.master import PARK, MasterState


def _master(scheme="CSS(10)", total=30, workers=3, may=lambda _o: False):
    rows: list[tuple] = []
    master = MasterState(
        make(scheme, total, workers), lambda wid: (1.0, 1), may,
        "test", rows.append,
    )
    return master, rows


def _kinds(rows):
    return [(r[0], r[3], r[4], r[5], r[9]) for r in rows]


def test_requests_follow_the_stepper_and_deliver_results():
    master, rows = _master()
    assert master.request(0, None, False, at=1.0) == (0, 10, 0)
    assert master.request(1, None, False, at=2.0) == (10, 20, 0)
    assert master.outstanding == {0: (0, 10), 1: (10, 20)}
    assert master.request(0, None, True, at=3.0, landed=2.5) == (20, 30, 0)
    assert master.outstanding == {0: (20, 30), 1: (10, 20)}
    assert rows[2] == ("result", "test", 2.5, 0, 0, 10,
                       None, None, None, "", None)
    assert rows[3][:3] == ("assign", "test", 3.0)


def test_dry_request_terminates_unless_work_may_reappear():
    master, rows = _master(total=10)
    master.request(0, None, False)
    assert master.request(1, None, False) is None
    assert master.parked == []

    master, rows = _master(total=10, may=bool)  # while anything is out
    master.request(0, None, False)
    assert master.request(1, None, False, at=4.0) is PARK
    assert master.parked == [1]
    assert _kinds(rows)[-1] == ("park", 1, None, None, "")


def test_lost_span_is_served_before_the_scheduler():
    master, rows = _master()
    master.request(0, None, False)
    master.request(1, None, False)
    assert master.lose(0) == (0, 10)
    assert master.lose(0) is None  # nothing more to lose
    # The next requester gets the lost span, stage 0, with its own ACP.
    assert master.request(1, 7, True) == (0, 10, 0)
    assert rows[-1][0] == "assign" and rows[-1][7] == 7
    assert rows[-1][9] == ""


def test_release_hands_requeued_spans_then_terminates_the_rest():
    master, rows = _master(total=20, workers=3, may=bool)
    master.request(0, None, False)            # [0, 10)
    master.request(1, None, False)            # [10, 20)
    assert master.request(2, None, False) is PARK
    assert master.release() == []             # work may still reappear
    master.lose(0)
    assert master.release(at=5.0) == [(2, (0, 10))]
    assert _kinds(rows)[-1] == ("assign", 2, 0, 10, "requeue")
    assert rows[-1][7] is None
    assert master.request(1, None, True) is PARK  # [0, 10) is out
    # The last delivery settles the run: this requester terminates, and
    # the release terminates whoever is still parked.
    assert master.request(2, None, True) is None
    assert master.release() == [(1, None)]
    assert master.parked == []


def test_a_lost_parked_worker_is_forgotten():
    master, _rows = _master(total=10, may=bool)
    master.request(0, None, False)
    assert master.request(1, None, False) is PARK
    assert master.lose(1) is None
    assert master.parked == []


def test_unobserved_master_mirrors_no_decisions():
    master = MasterState(
        make("adaptive:TSS+FSS@2", 40, 2), lambda wid: (1.0, 1),
        lambda _o: False,
    )
    assert master.decisions is None
    assert master.request(0, None, False) is not None
