"""RuntimeConfig: validation, the deadline rule, deadline enforcement."""

from __future__ import annotations

import itertools

import pytest

from repro.core import make
from repro.runtime import RuntimeConfig, WorkerTimeoutError
from repro.runtime.master import master_loop
from repro.workloads import UniformWorkload


class TestDefaultsAndValidation:
    def test_defaults(self):
        config = RuntimeConfig()
        assert config.poll_timeout == 5.0
        assert config.worker_deadline == 120.0
        assert config.heartbeat_interval == 2.0

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            RuntimeConfig(poll_timeout=0.0)
        with pytest.raises(ValueError):
            RuntimeConfig(join_timeout=-1.0)

    @pytest.mark.parametrize("field, raw", itertools.product(
        ["poll_timeout", "worker_deadline", "heartbeat_interval",
         "join_timeout"],
        # every non-finite spelling ``float()`` accepts, so a value a
        # caller parsed from text is held to the same rule
        ["inf", "-inf", "nan", "NaN"],
    ))
    def test_rejects_non_finite(self, field, raw):
        # ``None`` disables a feature; ``inf`` must not pass for it:
        # the master's ``wait(timeout=inf)`` overflows.
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            RuntimeConfig(**{field: float(raw)})

    def test_deadline_must_exceed_heartbeat(self):
        with pytest.raises(ValueError, match="deadline"):
            RuntimeConfig(worker_deadline=1.0, heartbeat_interval=2.0)
        # disabling either side lifts the constraint
        RuntimeConfig(worker_deadline=None, heartbeat_interval=2.0)
        RuntimeConfig(worker_deadline=1.0, heartbeat_interval=None)


class TestDeadlineRule:
    """``overdue`` / ``wait_bound`` on plain data: the master loop
    blocks and scans by these two, the service pool's liveness timer
    is armed and scans by them."""

    CONFIG = RuntimeConfig(
        poll_timeout=0.1, worker_deadline=0.3, heartbeat_interval=0.02
    )

    def test_starved_scan_case_as_data(self):
        """PR 18's bug class without a process or a sleep: worker 0 is
        wedged, worker 1 heartbeats every 20 ms, so a wait never times
        out -- the verdict must not depend on which wait returned."""
        config = self.CONFIG
        last_seen = {0: 0.0, 1: 0.0}
        now, dropped_at = 0.0, None
        while now < 1.0:
            # The wait returns at the sibling's beat or at the bound,
            # whichever is first (and a real clock always ticks).
            bound = config.wait_bound(last_seen.values(), now)
            assert 0.0 <= bound <= config.poll_timeout
            now += max(1e-6, min(0.02, bound))
            last_seen[1] = now
            if config.overdue(last_seen, now) == [0]:
                dropped_at = now
                break
        assert dropped_at is not None
        assert 0.3 < dropped_at <= 0.3 + 0.02

    def test_wait_is_cut_at_the_nearest_expiry(self):
        config = self.CONFIG
        assert config.wait_bound([0.0, 0.25], 0.1) == 0.1
        assert config.wait_bound([0.0, 0.25], 0.25) == pytest.approx(0.05)
        # Past the expiry (or a failed send's ``last_seen = 0.0``): scan
        # now, never a negative timeout.
        assert config.wait_bound([0.0, 5.0], 5.0) == 0.0
        assert config.wait_bound([], 5.0) == 0.1

    def test_overdue_is_strictly_after_the_deadline(self):
        config = self.CONFIG
        assert config.overdue({"a": 0.0, "b": 0.2}, 0.3) == []
        assert config.overdue({"a": 0.0, "b": 0.2}, 0.31) == ["a"]
        assert config.overdue({}, 9.0) == []

    def test_disabled_deadline_never_expires(self):
        config = RuntimeConfig(
            poll_timeout=0.1, worker_deadline=None,
            heartbeat_interval=None,
        )
        assert config.overdue({0: 0.0}, 1e9) == []
        assert config.wait_bound([0.0], 1e9) == 0.1


class _SilentConn(object):
    """A fake pipe whose worker never says anything (hung process)."""

    def __init__(self):
        self.closed = False

    def recv(self):  # pragma: no cover - never ready
        raise AssertionError("silent conn should never be read")

    def send(self, msg):
        pass

    def close(self):
        self.closed = True


class TestDeadlineEnforcement:
    def test_silent_worker_raises_worker_timeout(self):
        import repro.runtime.master as master_mod

        wl = UniformWorkload(30)
        scheduler = make("CSS(5)", wl.size, 1)
        conn = _SilentConn()
        original_wait = master_mod.wait
        master_mod.wait = lambda conns, timeout=None: []
        try:
            with pytest.raises(WorkerTimeoutError) as err:
                master_loop(
                    scheduler, {0: conn},
                    config=RuntimeConfig(
                        poll_timeout=0.01,
                        worker_deadline=0.05,
                        heartbeat_interval=0.02,
                    ),
                )
        finally:
            master_mod.wait = original_wait
        # the error must point the operator at the knob
        assert "RuntimeConfig.worker_deadline" in str(err.value)
        assert conn.closed

    def test_heartbeat_survives_long_chunk(self):
        """A single long chunk outlives the deadline; heartbeats from
        the worker's side thread must keep it alive."""
        import numpy as np

        from repro.runtime import run_parallel
        from repro.workloads import SpinWorkload

        wl = SpinWorkload(24, spins=40, veclen=4096)
        run = run_parallel(
            "CSS", wl, 2,
            config=RuntimeConfig(
                poll_timeout=0.05,
                worker_deadline=0.4,
                heartbeat_interval=0.05,
            ),
            k=12,  # one chunk per worker: longest possible silence
        )
        np.testing.assert_array_equal(run.results, wl.execute_serial())

    def test_disabled_deadline_never_times_out(self):
        import numpy as np

        from repro.runtime import run_parallel

        wl = UniformWorkload(40)
        run = run_parallel(
            "TSS", wl, 2,
            config=RuntimeConfig(
                poll_timeout=0.05,
                worker_deadline=None,
                heartbeat_interval=None,
            ),
        )
        np.testing.assert_array_equal(run.results, wl.execute_serial())
