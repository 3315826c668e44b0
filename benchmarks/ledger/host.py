"""Host-side measurement: pinning, calibration brackets, spans, rusage.

Raw wall time on a shared two-CPU host does not repeat (identical runs
differ by 1.2-1.6x), so every timing the ledger reports is taken in
*reference-speed units*:

* the whole process tree is pinned to one CPU before anything forks;
* the timed phase is cut into rounds (0.1-0.3 s of work), each
  bracketed by :func:`calibrate` -- a fixed pure-Python loop shaped
  like the simulator's event loop;
* a round's times are divided by ``mean(bracket) / CALIB_REF_S``;
  :data:`CALIB_REF_S` is a committed constant, never re-derived at run
  time, so numbers from different commits share one unit;
* a rate is the median over passes, a latency is normalised by its own
  round's factor.

The raw figures ride along as ``host.*`` per-layer diagnostics.
"""

from __future__ import annotations

import heapq
import json
import os
import resource
import statistics
import time
from contextlib import contextmanager
from typing import Iterator, Optional, Sequence

from guard import stat_fields

#: What one :func:`calibrate` call takes on the reference container at
#: reference speed.  Committed, never measured at run time.
CALIB_REF_S = 0.0045

#: Iterations of the calibration loop (sized to ~CALIB_REF_S on a
#: quiet reference container).
CALIB_ITERS = 8000

_TICK = os.sysconf("SC_CLK_TCK")


def pin_to_one_cpu() -> None:
    """Pin this process (and every later fork child) to one CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def calibrate() -> float:
    """Seconds one fixed event-loop-shaped workload takes right now.

    Heap push/pop of ``(time, seq, payload)`` tuples, dict stores and
    float arithmetic: the instruction mix of the DES hot loop, so the
    factor tracks what the measured code feels from frequency scaling,
    cache pressure and a noisy neighbour.
    """
    heap: list = []
    table: dict = {}
    push, pop = heapq.heappush, heapq.heappop
    t = 0.0
    start = time.perf_counter()
    for i in range(CALIB_ITERS):
        t += 1.0 / (1 + (i & 7))
        push(heap, (t * 0.5 + (i % 13), i, None))
        if i & 1:
            at, seq, _ = pop(heap)
            table[seq & 255] = at - t
    return time.perf_counter() - start


class Normaliser(object):
    """Chain of calibration brackets around consecutive rounds.

    ``mark()`` takes one bracket sample; the factor of the round
    between two marks is their mean over :data:`CALIB_REF_S`.  One
    sample closes a round and opens the next, so the overhead is one
    :meth:`mark` (two :func:`calibrate` calls, ~10 ms) per round.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def mark(self) -> None:
        # Mean of two calls: one ~5 ms sample alone is +-10% noisy,
        # and on offline A/A data the mean tracked the workload better
        # than the minimum (the slow phases it must follow are real).
        self.samples.append((calibrate() + calibrate()) / 2.0)

    def factor(self) -> float:
        """Speed factor of the round closed by the latest mark."""
        a, b = self.samples[-2], self.samples[-1]
        return ((a + b) / 2.0) / CALIB_REF_S

    def calib_ms_p50(self) -> float:
        return statistics.median(self.samples) * 1e3

    def calib_spread(self) -> float:
        """p90/p10 of the bracket samples: how unsteady the host was."""
        ordered = sorted(self.samples)
        lo = ordered[len(ordered) // 10]
        hi = ordered[(len(ordered) * 9) // 10 - (len(ordered) >= 10)]
        return hi / lo


@contextmanager
def bracketed() -> Iterator[list]:
    """``with bracketed() as f:`` -- ``f[0]`` is the block's factor
    once the block has ended (layer replays divide by it)."""
    norm = Normaliser()
    norm.mark()
    out = [1.0]
    try:
        yield out
    finally:
        norm.mark()
        out[0] = norm.factor()


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (no interpolation: a reported latency is
    one that was measured)."""
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, int(q * len(ordered))))
    return ordered[idx]


# -- CPU and memory of this process and its children ---------------------


def cpu_seconds(live_child_pids: Sequence[int] = ()) -> float:
    """User+system CPU seconds so far of this process (all threads),
    of children already waited for (executor workers) and of the live
    children named (the pool worker, from ``/proc``)."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = time.process_time() + ru.ru_utime + ru.ru_stime
    for pid in live_child_pids:
        fields = stat_fields(pid)
        if fields:
            total += (int(fields[11]) + int(fields[12])) / _TICK
    return total


def pid_peak_rss_mb(pid: Optional[int]) -> float:
    """Peak resident set (VmHWM) of a live process, MB."""
    if pid is None:
        return 0.0
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return 0.0


def peak_rss_mb(live_child_pids: Sequence[Optional[int]] = ()) -> float:
    """``ru_maxrss`` of this process plus its largest child (reaped
    children from ``RUSAGE_CHILDREN``, live ones from ``/proc``)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    for pid in live_child_pids:
        child = max(child, pid_peak_rss_mb(pid))
    return own + child


# -- spans ---------------------------------------------------------------


class _NullSpan(object):
    """What a disabled tracer hands out: enter/exit do nothing."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span(object):
    __slots__ = ("tracer", "name", "job", "idx")

    def __init__(self, tracer: "Tracer", name: str, job: str) -> None:
        self.tracer, self.name, self.job = tracer, name, job

    def __enter__(self) -> None:
        tracer = self.tracer
        self.idx = len(tracer.spans)
        parent = tracer._stack[-1] if tracer._stack else -1
        tracer.spans.append(
            [self.name, time.perf_counter(), 0.0, parent, self.job]
        )
        tracer._stack.append(self.idx)

    def __exit__(self, *exc) -> None:
        self.tracer._stack.pop()
        self.tracer.spans[self.idx][2] = time.perf_counter()


class Tracer(object):
    """In-memory spans around the harness's calls into ``src/``.

    A span is ``(name, start, end, parent, job)``; ``parent`` is the
    index of the enclosing span (-1 at the root) and ``job`` the
    identifier every span of one operation shares.  Nothing is written
    until :meth:`dump`.  A disabled tracer hands out one shared no-op
    span, so the untraced run pays an attribute load and two empty
    calls per operation.  Spans are opened from the harness's main
    thread only.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, job: str = ""):
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, job)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, job) in \
                    enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": name, "start": start,
                    "end": end, "parent": parent, "job": job,
                }) + "\n")
