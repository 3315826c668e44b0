"""Chaos for a *live* service: FaultPlans against real pool workers.

The one-shot chaos paths take a :class:`~repro.chaos.FaultPlan` into a
run before it starts (simulator hooks, ``run_parallel(plan=)``).  A daemon
has no "before": workers are long-lived and shared across tenants, so
faults must land on whatever incarnation occupies a slot *when the
fault fires*.  :func:`inject_service_faults` maps a plan's
``WorkerDeath`` events onto ``loop.call_later`` timers that SIGKILL
the pool slot at the scaled wall-clock offset -- the pool's heartbeat/deadline
machinery then detects the death, requeues the victim's job at the
head of its tenant's queue, and respawns the slot with a bumped
incarnation.  That full loop (kill -> detect -> requeue -> re-execute
exactly once, other tenants untouched) is exactly what
``tests/service/test_chaos.py`` and the CI service smoke job assert.

Only deaths translate: restarts are implicit (the pool always
respawns), and message delay/loss/stall/spike have no analogue on a
local pipe transport -- they are counted and reported as skipped so a
caller can tell a partially-applicable plan from a fully-applied one.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING

from ..obs.logutil import get_logger
from .plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..service.server import ServiceServer

__all__ = ["applicable_faults", "inject_service_faults"]

_log = get_logger("chaos.service")


def applicable_faults(plan: FaultPlan, slots: int) -> list:
    """The subset of ``plan`` a live pool of ``slots`` workers can
    absorb: deaths whose worker index names an existing slot (an int:
    ``0.5`` names none, ``1.0`` would not index one, and ``true`` is a
    bool, not a slot)."""
    return [
        ev for ev in plan.events
        if ev.kind == "death" and type(ev.worker) is int
        and 0 <= ev.worker < slots
    ]


def inject_service_faults(
    server: "ServiceServer",
    plan: FaultPlan,
    time_scale: float = 1.0,
) -> list[asyncio.TimerHandle]:
    """Schedule ``plan``'s worker deaths against a running daemon.

    Must be called from the daemon's event loop (the ``chaos`` op
    does).  ``time_scale`` maps the plan's (often virtual) times onto
    wall-clock seconds: a plan authored for a simulator horizon of
    ``H`` virtual seconds replayed over ``W`` wall seconds wants
    ``time_scale=W/H``.  Returns the scheduled timers (cancelled on
    server shutdown).
    """
    if time_scale <= 0:
        raise ValueError(f"time_scale must be > 0, got {time_scale}")
    deaths = applicable_faults(plan, server.pool.size)
    skipped = len(plan.events) - len(deaths)
    if skipped:
        _log.info(
            "fault plan: %d of %d events have no service analogue "
            "(only worker deaths translate to a live pool)",
            skipped, len(plan.events),
        )
    loop = asyncio.get_running_loop()
    return [
        loop.call_later(
            ev.at * time_scale, _kill_slot, server, ev.worker,
            ev.at * time_scale,
        )
        for ev in deaths
    ]


def _kill_slot(server: "ServiceServer", slot: int, delay: float) -> None:
    hit = server.pool.kill_worker(slot)
    _log.info(
        "chaos: SIGKILL slot %d at +%.3fs (%s)",
        slot, delay, "live worker hit" if hit else "slot empty",
    )
