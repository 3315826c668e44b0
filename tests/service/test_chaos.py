"""FaultPlan against a live daemon: seeded kills, digest isolation."""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.chaos import (
    FaultPlan,
    MessageDelay,
    WorkerDeath,
    WorkerRestart,
    applicable_faults,
    inject_service_faults,
)
from repro.obs import stream_digest
from repro.runtime.config import RuntimeConfig
from repro.service import ServiceClient
from repro.service.jobs import job_from_spec
from repro.service.server import ServiceConfig, ServiceServer
from repro.verify import audit_service_log

SNAPPY = RuntimeConfig(
    poll_timeout=0.05,
    worker_deadline=20.0,
    heartbeat_interval=0.2,
    join_timeout=5.0,
)

# Wall-clock slow in the worker (SS = one DES event pair per
# iteration; ``fast`` off keeps it off the fast path, which would
# finish it before the kill): the window the seeded kill lands in.
SLOW_SPEC = {
    "scheme": "SS",
    "workload": {"kind": "uniform", "size": 60000, "unit": 1e-4},
    "cluster": {"workers": 2},
    "params": {"fast": False},
}
FAST_SPEC = {
    "scheme": "TSS",
    "workload": {"kind": "uniform", "size": 300, "unit": 1e-4},
    "cluster": {"workers": 4},
}


class TestApplicableFaults:
    def test_filters_to_in_range_deaths(self):
        plan = FaultPlan(events=(
            WorkerDeath(worker=0, at=1.0),
            WorkerDeath(worker=5, at=1.0),      # out of range
            WorkerRestart(worker=0, at=2.0),    # implicit in a pool
            MessageDelay(worker=0, at=0.5, delay=0.1),  # no analogue
        ))
        hits = applicable_faults(plan, slots=2)
        assert len(hits) == 1
        assert hits[0].worker == 0 and hits[0].kind == "death"

    def test_empty_plan(self):
        assert applicable_faults(FaultPlan(), slots=4) == []

    def test_time_scale_must_be_positive(self):
        class _Stub(object):
            class pool(object):
                size = 2

        with pytest.raises(ValueError, match="time_scale"):
            asyncio.run(_inject(_Stub(), FaultPlan(), -1.0))


async def _inject(server, plan, time_scale):
    return inject_service_faults(server, plan, time_scale=time_scale)


class _Daemon(object):
    """A live daemon on a background thread (no signal handlers)."""

    def __init__(self, tmp_path, **config_kwargs):
        self.sock = str(tmp_path / "repro.sock")
        kwargs = dict(
            workers=2, socket_path=self.sock, runtime=SNAPPY,
        )
        kwargs.update(config_kwargs)
        self.server = ServiceServer(ServiceConfig(**kwargs))
        self._thread = threading.Thread(
            target=lambda: asyncio.run(
                self.server.serve(install_signals=False)
            ),
            daemon=True,
        )

    def __enter__(self):
        self._thread.start()
        probe = ServiceClient.connect(
            self.sock, tenant="probe", retry_for=10.0
        )
        probe.close()
        return self

    def __exit__(self, *exc):
        if self._thread.is_alive():
            try:
                with self.client("teardown") as c:
                    c.drain()
            except Exception:
                pass
            self._thread.join(timeout=30.0)

    def client(self, tenant: str) -> ServiceClient:
        return ServiceClient.connect(
            self.sock, tenant=tenant, retry_for=5.0
        )


@pytest.mark.slow
class TestLiveChaos:
    def test_seeded_plan_kills_recover_exactly_once(self, tmp_path):
        """The acceptance scenario: a seeded FaultPlan SIGKILLs the
        worker running one tenant's job mid-loop; that job recovers
        exactly once and every tenant's digest stays bit-identical to
        its one-shot reference."""
        ref_slow = stream_digest(
            job_from_spec(SLOW_SPEC).run().obs_events
        )
        ref_fast = stream_digest(
            job_from_spec(FAST_SPEC).run().obs_events
        )
        # Both slots die shortly after the victim job starts; the
        # plan is seeded data, not an inline kill call.
        plan = FaultPlan(events=(
            WorkerDeath(worker=0, at=0.2),
            WorkerDeath(worker=1, at=0.2),
            MessageDelay(worker=0, at=0.1, delay=0.5),  # skipped
        ))
        with _Daemon(tmp_path) as d:
            with d.client("alice") as alice, d.client("bob") as bob:
                jid_a = alice.submit(SLOW_SPEC)
                # Scheduled count excludes the delay (no analogue).
                assert alice.inject_chaos(plan.to_json()) == 2
                jid_b = bob.submit(FAST_SPEC)
                out_b = bob.wait(jid_b, timeout=120)
                out_a = alice.wait(jid_a, timeout=240)
                ledger = alice.log()
                metrics = alice.metrics()
        assert out_a["state"] == "done"
        assert out_a["requeues"] >= 1, \
            "seeded kill never interrupted the victim job"
        assert out_a["digest"] == ref_slow
        assert out_b["state"] == "done"
        assert out_b["digest"] == ref_fast, \
            "bystander tenant's digest perturbed by seeded faults"
        audit_service_log(ledger).raise_if_failed()
        assert metrics["worker_deaths_total"]["value"] >= 1

    def test_bad_plan_rejected_with_reason(self, tmp_path):
        from repro.service import ServiceError

        with _Daemon(tmp_path) as d, d.client("alice") as c:
            with pytest.raises(ServiceError) as err:
                c.inject_chaos({"events": [{"kind": "??"}]})
            assert err.value.reason == "bad-plan"

    def test_kill_on_idle_slot_is_harmless(self, tmp_path):
        """Deaths landing on empty slots respawn the worker without
        touching any job -- the pool absorbs them silently."""
        plan = FaultPlan(events=(WorkerDeath(worker=0, at=0.0),))
        with _Daemon(tmp_path) as d, d.client("alice") as c:
            assert c.inject_chaos(plan.to_json()) == 1
            time.sleep(0.5)  # let the kill fire and the pool revive
            out = c.run(FAST_SPEC, timeout=120)
            assert out["state"] == "done"
            assert out["requeues"] == 0
            audit_service_log(c.log()).raise_if_failed()
