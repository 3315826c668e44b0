"""SharedCounter / LeasedCounter: atomicity and SIGKILL behaviour."""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import time

import pytest

from repro.decentral import LeasedCounter, SharedCounter


def _pound(path: str, n: int, out_path: str) -> None:
    counter = SharedCounter(path)
    seen = [counter.fetch_add(1) for _ in range(n)]
    counter.close()
    with open(out_path, "wb") as fh:
        pickle.dump(seen, fh)


def _hold_then_idle(path: str, ready) -> None:
    counter = SharedCounter(path)
    fd = counter._handle()
    import fcntl

    fcntl.flock(fd, fcntl.LOCK_EX)
    ready.set()
    time.sleep(60)  # killed long before this expires


def _claim_and_report(path: str, conn) -> None:
    conn.send("claiming")
    counter = SharedCounter(path)
    conn.send(("claimed", counter.fetch_add(1)))
    counter.close()


class TestSharedCounter:
    def test_fetch_add_and_peek(self, tmp_path):
        counter = SharedCounter.create(str(tmp_path / "ctr"), value=5)
        assert counter.fetch_add(1) == 5
        assert counter.fetch_add(3) == 6
        assert counter.peek() == 9
        counter.close()

    def test_create_resets_existing(self, tmp_path):
        path = str(tmp_path / "ctr")
        SharedCounter.create(path, value=41).close()
        counter = SharedCounter.create(path)
        assert counter.peek() == 0
        counter.close()

    def test_pickle_drops_descriptor(self, tmp_path):
        counter = SharedCounter.create(str(tmp_path / "ctr"))
        counter.fetch_add(1)
        clone = pickle.loads(pickle.dumps(counter))
        assert clone._fd is None
        assert clone.fetch_add(1) == 1
        clone.close()
        counter.close()

    def test_concurrent_fetch_add_is_a_permutation(self, tmp_path):
        # 4 processes x 50 increments: every value 0..199 claimed
        # exactly once -- the exactly-once property the runtime builds on.
        path = str(tmp_path / "ctr")
        SharedCounter.create(path).close()
        ctx = multiprocessing.get_context("fork")
        outs = [str(tmp_path / f"out-{i}.pkl") for i in range(4)]
        procs = [
            ctx.Process(target=_pound, args=(path, 50, out))
            for out in outs
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(30)
            assert p.exitcode == 0
        claimed = []
        for out in outs:
            with open(out, "rb") as fh:
                claimed.extend(pickle.load(fh))
        assert sorted(claimed) == list(range(200))

    def test_claim_waits_for_unlock(self, tmp_path):
        # The stall primitive: while the parent holds lock(), a forked
        # child's fetch_add cannot return.  The value the child fetches
        # is the order witness: the parent rewrites the counter after
        # the child announced its claim, and the child must see that.
        path = str(tmp_path / "ctr")
        counter = SharedCounter.create(path)
        counter.lock()
        ctx = multiprocessing.get_context("fork")
        ours, theirs = ctx.Pipe()
        child = ctx.Process(target=_claim_and_report, args=(path, theirs))
        child.start()
        theirs.close()
        assert ours.recv() == "claiming"
        SharedCounter.create(path, value=41).close()
        assert not ours.poll()
        counter.unlock()
        assert ours.recv() == ("claimed", 41)
        child.join(10)
        assert child.exitcode == 0
        assert counter.fetch_add(1) == 42  # the lock is really gone
        counter.close()

    def test_sigkilled_holder_releases_the_lock(self, tmp_path):
        # The design reason for flock over mp.Lock: kill a process
        # while it HOLDS the exclusive lock; the kernel must release it
        # so survivors make progress with no watchdog.
        path = str(tmp_path / "ctr")
        SharedCounter.create(path).close()
        ctx = multiprocessing.get_context("fork")
        ready = ctx.Event()
        holder = ctx.Process(target=_hold_then_idle, args=(path, ready))
        holder.start()
        assert ready.wait(10)
        os.kill(holder.pid, signal.SIGKILL)
        holder.join(10)
        counter = SharedCounter(path)
        t0 = time.monotonic()
        assert counter.fetch_add(1) == 0  # old value: no partial write
        assert time.monotonic() - t0 < 5.0
        counter.close()


class TestLeasedCounter:
    def _make(self, tmp_path, lease=4, limit=100):
        global_ctr = SharedCounter.create(str(tmp_path / "global"))
        return LeasedCounter.create(
            str(tmp_path / "group"), global_ctr, lease=lease, limit=limit
        )

    def test_claims_are_sequential_with_one_refill_per_lease(self, tmp_path):
        leased = self._make(tmp_path, lease=4)
        claims = [leased.claim() for _ in range(8)]
        assert [c[0] for c in claims] == list(range(8))
        assert [c[1] for c in claims] == [True, False, False, False] * 2
        leased.close()

    def test_two_groups_partition_the_global_range(self, tmp_path):
        global_ctr = SharedCounter.create(str(tmp_path / "global"))
        g0 = LeasedCounter.create(
            str(tmp_path / "g0"), global_ctr, lease=3, limit=100
        )
        g1 = LeasedCounter.create(
            str(tmp_path / "g1"), global_ctr, lease=3, limit=100
        )
        taken = [g0.claim()[0], g1.claim()[0]]  # each refills a block
        taken += [g0.claim()[0], g1.claim()[0], g0.claim()[0]]
        assert sorted(taken) == [0, 1, 2, 3, 4]
        g0.close()
        g1.close()

    def test_claims_may_exceed_limit_near_exhaustion(self, tmp_path):
        # The lease can straddle the limit; indices >= limit mean "no
        # more work" and are checked per-claim by the executor.
        leased = self._make(tmp_path, lease=4, limit=2)
        indices = [leased.claim()[0] for _ in range(4)]
        assert indices == [0, 1, 2, 3]
        leased.close()

    def test_lease_must_be_positive(self, tmp_path):
        global_ctr = SharedCounter.create(str(tmp_path / "global"))
        with pytest.raises(ValueError):
            LeasedCounter(str(tmp_path / "g"), global_ctr, lease=0,
                          limit=10)
        global_ctr.close()

    def test_pickle_round_trip(self, tmp_path):
        leased = self._make(tmp_path, lease=4)
        assert leased.claim() == (0, True)
        clone = pickle.loads(pickle.dumps(leased))
        assert clone.claim() == (1, False)
        clone.close()
        leased.close()
