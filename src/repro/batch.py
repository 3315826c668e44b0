"""Process-parallel fan-out of independent simulation jobs.

The paper's artifact set is a large sweep of *independent* runs --
schemes x p in {1, 2, 4, 8} x dedicated/nondedicated x seeds -- and the
discrete-event simulator is single-threaded pure Python, so the sweep
is embarrassingly parallel.  This module is the one place that
parallelism lives:

* :class:`SimJob` describes one run declaratively (scheme name,
  workload, cluster, engine kind, extra simulate kwargs).  Jobs are
  plain picklable data with a deterministic :meth:`SimJob.key`, so a
  batch is reproducible and auditable.
* :func:`run_batch` executes a job list and returns results **in
  submission order**.  ``n_jobs=1`` runs in-process (no pool, no
  subprocesses -- the hermetic path tests use); ``n_jobs>1`` fans out
  over a :class:`~concurrent.futures.ProcessPoolExecutor`.  Every
  simulation is deterministic, so the two paths are bit-identical.

Before submission the parent resolves every workload's cost vector
(persistent cache hit or one computation) so pool workers receive a
precomputed profile inside the pickled workload and never re-derive
the grid.  A workload pickles only what cannot be rebuilt, its
constructor arguments and its resolved cost vector: every value it
derives is a cached property, which the pickle leaves behind and the
far side rebuilds (``workloads.base.uncached_state``; a job's
:attr:`SimJob.key` memo stays behind by the same rule).  The pool is
fed *tasks* of several consecutive jobs (the paper's CSS(k), applied
to our own sweep): one pickle per task, so a workload or cluster
shared by the task's jobs crosses the pipe once, and the pool hop is
paid once per task.

The per-result work is the workers', as a distributed chunk
calculation moves the master's: each result's chunk rows come back as
the exact JSON text a persisted line holds for them (see
:class:`~repro.simulation.metrics.LazyChunkList`), encoded once, in
the worker.  The parent keeps the text undecoded and writes it into
the line as it is (:meth:`SimResult.row_json`), so it never
unpickles, re-encodes or re-checks a row.

``n_jobs`` resolution: an explicit positive integer wins; ``0`` or
``None`` means "all cores".

Million-run sweeps additionally need *streaming*: results must land on
disk as they finish, memory must stay bounded, and a killed sweep must
be resumable.  :func:`stream_batch` provides that -- a generator
yielding ``(index, result)`` in submission order with a bounded
in-flight window, optional incremental JSONL persistence (one JSON
line per finished job, flushed immediately, keyed by
:meth:`SimJob.key`; the result's chunks are stored as rows, see
:meth:`SimResult.row_dict`), and ``resume=True`` to skip any job whose
key is already in the file.  ``KeyboardInterrupt`` and ``SIGTERM``
flush everything finished so far plus a ``<persist>.manifest.json``
resume manifest (replaced whole, never truncated) before propagating.
:func:`run_batch` is now a thin list collector over the same core.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import functools
import hashlib
import json
import os
import signal
import threading
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, Iterator, Optional

from .decentral import simulate_decentral
from .obs import BufferedCollector
from .obs.export import json_loads
from .obs.logutil import get_logger
from .simulation import ClusterSpec, SimResult, simulate, simulate_tree
from .workloads.base import Workload, uncached_state

_log = get_logger("batch")

__all__ = [
    "SimJob",
    "run_batch",
    "stream_batch",
    "resolve_jobs",
]

@dataclasses.dataclass(frozen=True)
class SimJob(object):
    """One independent simulation: inputs only, no shared state.

    ``engine`` selects the executor: ``"master"`` (the centralized
    master--slave engine, :func:`repro.simulation.simulate`),
    ``"tree"`` (the decentralized tree engine,
    :func:`repro.simulation.simulate_tree`, for which ``scheme`` is
    cosmetic and ``params`` carries ``weighted``/``grain``) or
    ``"decentral"`` (the shared-counter contention model,
    :func:`repro.decentral.simulate_decentral`, where ``params`` may
    carry ``atomic_op_cost``/``group_size``/``lease``).
    ``params`` holds extra keyword arguments (``acp_model``, ``alpha``,
    ...); ``tag`` is a free-form caller label (e.g. ``"p=8/ded"``).

    ``collect_events=True`` additionally captures the unified
    observability trace (see :mod:`repro.obs`) and attaches it to the
    result as ``SimResult.obs_events``.

    A job's inputs must not be mutated after construction: its
    :attr:`key` is computed once, on first read, and kept.
    """

    scheme: str
    workload: Workload
    cluster: ClusterSpec
    engine: str = "master"
    params: dict = dataclasses.field(default_factory=dict)
    tag: str = ""
    collect_events: bool = False

    def __post_init__(self) -> None:
        if self.engine not in ("master", "tree", "decentral"):
            raise ValueError(
                f"engine must be 'master', 'tree' or 'decentral', "
                f"got {self.engine!r}"
            )

    def describe(self) -> str:
        """A stable, human-readable descriptor of the job's inputs."""
        wl = self.workload
        wl_sig = wl.cost_signature()
        # No signature: the class and size do not identify the loop
        # (two slopes of one LinearWorkload), the costs do.
        wl_part = (
            repr(wl_sig) if wl_sig is not None
            else f"{type(wl).__name__}(size={wl.size}"
                 f",costs={wl.cost_digest()})"
        )
        cl = self.cluster
        # Each node's effective V: its override as given, else the
        # cluster's derived value.
        nodes = ";".join(
            f"{n.name}:s={n.speed!r}:l={n.latency!r}:b={n.bandwidth!r}"
            f":v={(v if n.virtual_power is None else n.virtual_power)!r}"
            f":f={n.fails_at!r}:seg={n.segment!r}:load={n.load!r}"
            for n, v in zip(cl.nodes, cl.virtual_powers())
        )
        cl_part = (
            f"nodes=[{nodes}]:ms={cl.master_service!r}"
            f":req={cl.request_bytes!r}:rep={cl.reply_bytes!r}"
            f":res={cl.result_bytes_per_item!r}"
            f":mbw={cl.master_bandwidth!r}"
        )
        params = ",".join(
            f"{k}={self.params[k]!r}" for k in sorted(self.params)
        )
        # ``collect_events`` marks the descriptor only when on: the
        # trace does not change what the simulation computes, and the
        # silent default keeps pre-existing job keys byte-stable.
        events_part = "|events" if self.collect_events else ""
        return (
            f"{self.engine}|{self.scheme}|{self.tag}|{wl_part}"
            f"|{cl_part}|{params}{events_part}"
        )

    @functools.cached_property
    def key(self) -> str:
        """Deterministic job identity: sha256 of :meth:`describe`,
        computed once per job (``dataclasses.replace`` makes a new job,
        which computes its own)."""
        return hashlib.sha256(
            self.describe().encode("utf-8")
        ).hexdigest()

    def __getstate__(self) -> dict:
        """Pickle the inputs only: a job's pickle bytes do not depend
        on whether its :attr:`key` was read."""
        return uncached_state(self)

    def run(self, collector=None) -> SimResult:
        """Execute this job in the current process.

        ``collector`` (optional) replaces the internal buffer used
        when ``collect_events`` is set, so a caller can observe the
        identical events live (e.g. the service pool streaming them to
        subscribers) without perturbing the run: the collector must
        retain its events (``.events``) for ``SimResult.obs_events``.
        """
        kwargs = self.params
        trace = None
        if self.collect_events and "collector" not in kwargs:
            trace = BufferedCollector() if collector is None else collector
            kwargs = {**kwargs, "collector": trace}
        engine = self.engine
        if engine == "master":
            result = simulate(self.scheme, self.workload, self.cluster,
                              **kwargs)
        elif engine == "decentral":
            result = simulate_decentral(self.scheme, self.workload,
                                        self.cluster, **kwargs)
        else:
            result = simulate_tree(self.workload, self.cluster, **kwargs)
        if trace is not None:
            result.obs_events = trace.events
        return result


#: Jobs per pool task under the default window.
_TASK_JOBS = 4


def _execute_many(jobs: list[SimJob]) -> list[SimResult]:
    """Top-level pool target (must be module-level for pickling)."""
    return [job.run() for job in jobs]


def resolve_jobs(n_jobs: Optional[int]) -> int:
    """Normalize an ``n_jobs`` request to a concrete worker count."""
    if n_jobs is None or n_jobs == 0:
        return max(1, os.cpu_count() or 1)
    if n_jobs < 0:
        raise ValueError(f"n_jobs must be >= 0 or None, got {n_jobs}")
    return int(n_jobs)


@contextlib.contextmanager
def _sigterm_as_interrupt():
    """Translate SIGTERM into KeyboardInterrupt for the duration.

    A sweep killed by its supervisor (``kill <pid>``) then flushes
    exactly like a Ctrl-C one: finished results are already on disk,
    and the manifest records the partial state.  Signal handlers are
    main-thread-only; elsewhere this is a no-op.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.getsignal(signal.SIGTERM)

    def _raise(signum, frame):  # pragma: no cover - exercised via kill
        raise KeyboardInterrupt(f"signal {signum}")

    try:
        signal.signal(signal.SIGTERM, _raise)
    except (ValueError, OSError):  # pragma: no cover - exotic runtimes
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


class _Persister(object):
    """Incremental JSONL sink keyed by :meth:`SimJob.key`.

    One flushed line per finished job, so a killed sweep loses at most
    the in-flight jobs.  A line is one JSON object -- ``key``,
    ``index``, ``scheme``, ``engine``, ``tag`` and the ``result`` in
    its row form (:meth:`SimResult.row_dict`) -- written as bytes by
    :meth:`SimResult.row_json` and read back by one
    :func:`~repro.obs.export.json_loads` (the codec's tolerant reader:
    :mod:`json` reads what the fast reader will not, ``NaN`` /
    ``Infinity`` among it).  A result from a pool worker brings its
    rows as text, and its line is the codec's bytes of the head
    followed by that text; any other result's line is one
    :func:`~repro.obs.export.json_bytes` call.  The bytes are the same
    either way.  Lines whose result holds each chunk as a dict
    (:meth:`SimResult.to_dict`, the earlier format) read back the same
    way.

    On resume, every record is rebuilt (:meth:`SimResult.from_dict`)
    as it is loaded.  A line that does not parse (a torn tail: the
    process died mid-write), is not a keyed object, or whose result
    does not rebuild is skipped with one warning, and its job re-runs;
    a newline is patched in before appending so the next record starts
    clean.
    """

    def __init__(self, path: Optional[str], resume: bool) -> None:
        self.path = path
        self.loaded: dict[str, SimResult] = {}
        self._fh = None
        if path is None:
            return
        if resume and os.path.exists(path):
            skipped = 0
            with open(path, "rb") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    key, result = _load_record(line)
                    if result is None:
                        skipped += 1
                    else:
                        self.loaded[key] = result
            if skipped:
                _log.warning(
                    "resume from %s: skipped %d unusable line(s) "
                    "(torn tail or foreign content); the affected "
                    "job(s) will re-run and be rewritten", path, skipped,
                )
            with open(path, "rb+") as fh:
                fh.seek(0, os.SEEK_END)
                if fh.tell() > 0:
                    fh.seek(-1, os.SEEK_END)
                    if fh.read(1) != b"\n":
                        fh.write(b"\n")
        self._fh = open(path, "ab")

    def record(self, job: SimJob, index: int, result: SimResult) -> None:
        if self._fh is None:
            return
        line = result.row_json({
            "key": job.key,
            "index": index,
            "scheme": job.scheme,
            "engine": job.engine,
            "tag": job.tag,
        })
        self._fh.write(line + b"\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _load_record(line: bytes) -> tuple[str, Optional[SimResult]]:
    """``(key, result)`` of one persisted line; ``result`` is None
    when the line is not a usable record."""
    try:
        rec = json_loads(line)
    except ValueError:
        # Torn tail from a killed sweep: the job re-runs and rewrites a
        # whole record.
        return "", None
    key = rec.get("key") if isinstance(rec, dict) else None
    if not key:
        # Parses, but is not one of our records (a torn line that
        # happens to be valid, or foreign content): same treatment.
        return "", None
    result = rec.get("result")
    if isinstance(result, dict):
        try:
            return key, SimResult.from_dict(result)
        except (KeyError, TypeError, ValueError):
            pass
    # Keyed, but its result is missing or malformed (say, a chunk row
    # of the wrong width): same treatment.
    return key, None


def _write_manifest(path: str, total: int, done: int,
                    complete: bool) -> None:
    """Write ``<path>.manifest.json`` whole or not at all: a kill
    mid-write leaves the previous manifest, never an empty one."""
    target = path + ".manifest.json"
    tmp = target + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(
            {"total": total, "done": done, "complete": complete}, fh
        )
        fh.write("\n")
    os.replace(tmp, target)


def stream_batch(
    jobs: Iterable[SimJob],
    n_jobs: Optional[int] = 1,
    *,
    window: Optional[int] = None,
    persist: Optional[str] = None,
    resume: bool = False,
    pool: Optional[ProcessPoolExecutor] = None,
) -> Iterator[tuple[int, SimResult]]:
    """Stream ``(index, result)`` pairs in submission order.

    The streaming core behind :func:`run_batch`:

    * **Bounded in-flight window** -- at most ``window`` jobs (default
      ``8 x workers``) are submitted ahead of the consumer, so a
      million-job sweep holds a handful of futures, not a million.
      The window is cut into two pool tasks per worker, each one
      ``submit``: four jobs a task by default, one when the window
      (or the whole batch) is shorter than ``4 x workers`` jobs.
    * **Incremental persistence** -- ``persist="sweep.jsonl"`` appends
      one flushed JSON line per finished job: the job's key, index,
      scheme, engine and tag, and the result with its chunks as rows
      (:meth:`SimResult.row_dict`, which round-trips exactly;
      ``obs_events`` traces and ``results`` arrays are not persisted).
    * **Resume** -- ``resume=True`` loads the existing file and yields
      persisted results (rebuilt via :meth:`SimResult.from_dict`,
      which also reads the earlier lines whose chunks are dicts) for
      any job whose :meth:`SimJob.key` already appears, running only
      the remainder.  A line that is torn, foreign or whose result
      does not rebuild is skipped with a warning, and its job re-runs.
    * **Interrupt safety** -- ``KeyboardInterrupt`` or ``SIGTERM``
      cancels outstanding work, flushes ``<persist>.manifest.json``
      (``{"total", "done", "complete"}``) and propagates; a later
      ``resume=True`` call picks up where the sweep died.

    Job validation and workload cost resolution happen eagerly at call
    time; the returned generator does the work lazily.
    """
    jobs = list(jobs)
    for job in jobs:
        if not isinstance(job, SimJob):
            raise TypeError(
                f"stream_batch expects SimJob items, got {job!r}"
            )
    if window is not None and window < 1:
        raise ValueError(f"window must be >= 1 or None, got {window}")
    # Resolve every distinct workload's cost vector in the parent so
    # pool workers receive a precomputed profile instead of re-deriving
    # the grid once per process.
    for workload in {id(j.workload): j.workload for j in jobs}.values():
        workload.costs()
    return _stream(jobs, n_jobs, window, persist, resume, pool)


def _stream(jobs, n_jobs, window, persist, resume, pool):
    sink = _Persister(persist, resume)
    total = len(jobs)
    done = 0
    complete = False
    try:
        with _sigterm_as_interrupt():
            cached: dict[int, SimResult] = {}
            if sink.loaded:
                seen: set = set()
                for idx, job in enumerate(jobs):
                    key = job.key
                    result = sink.loaded.get(key)
                    if result is not None:
                        # A job listed twice gets a result of its own.
                        cached[idx] = (
                            copy.deepcopy(result) if key in seen
                            else result
                        )
                        seen.add(key)
            to_run = total - len(cached)
            workers = resolve_jobs(n_jobs)
            if pool is None and (workers == 1 or to_run <= 1):
                for idx, job in enumerate(jobs):
                    result = cached.pop(idx, None)
                    if result is None:
                        result = job.run()
                        sink.record(job, idx, result)
                    done += 1
                    yield idx, result
            else:
                own = pool is None
                ex = pool or ProcessPoolExecutor(
                    max_workers=min(workers, to_run)
                )
                try:
                    pool_workers = (
                        getattr(ex, "_max_workers", None) or workers
                    )
                    win = (
                        window if window is not None
                        else 2 * _TASK_JOBS * pool_workers
                    )
                    # Two tasks per worker out of the window -- and
                    # out of the batch, so that a short one still
                    # reaches every worker.
                    task = max(
                        1, min(win, to_run) // (2 * pool_workers)
                    )
                    # (index, future, position in the future's list);
                    # a cached index holds its window slot, no future.
                    inflight: deque = deque()
                    next_idx = 0
                    while next_idx < total or inflight:
                        # Refill a whole task at a time: topping up
                        # job by job would decay to tasks of one.
                        while next_idx < total \
                                and win - len(inflight) >= task:
                            if next_idx in cached:
                                inflight.append((next_idx, None, 0))
                                next_idx += 1
                                continue
                            hi = next_idx + 1
                            stop = min(total, next_idx + task)
                            while hi < stop and hi not in cached:
                                hi += 1
                            fut = ex.submit(
                                _execute_many, jobs[next_idx:hi]
                            )
                            inflight.extend(
                                (i, fut, i - next_idx)
                                for i in range(next_idx, hi)
                            )
                            next_idx = hi
                        idx, fut, pos = inflight.popleft()
                        if fut is None:
                            result = cached.pop(idx)
                        else:
                            result = fut.result()[pos]
                            sink.record(jobs[idx], idx, result)
                        done += 1
                        yield idx, result
                finally:
                    if own:
                        ex.shutdown(cancel_futures=True)
        complete = True
    finally:
        # Runs on normal exhaustion, KeyboardInterrupt/SIGTERM, and
        # GeneratorExit (consumer broke out): everything finished is
        # already flushed line-by-line; stamp the manifest last.
        sink.close()
        if persist is not None:
            _write_manifest(persist, total, done, complete)


def run_batch(
    jobs: Iterable[SimJob],
    n_jobs: Optional[int] = 1,
    pool: Optional[ProcessPoolExecutor] = None,
    *,
    window: Optional[int] = None,
    persist: Optional[str] = None,
    resume: bool = False,
) -> list[SimResult]:
    """Run every job; results come back in submission order.

    ``n_jobs=1`` (the default) executes in-process with no pool at all,
    guaranteeing hermetic, dependency-free behaviour; ``n_jobs>1`` (or
    ``0``/``None`` for all cores) fans out across processes.  The
    simulations are deterministic, so both paths produce bit-identical
    results.  An existing ``pool`` may be passed to amortize worker
    start-up across batches (``n_jobs`` is then ignored).

    ``persist``/``resume``/``window`` stream through
    :func:`stream_batch`: incremental JSONL persistence (one line per
    job, its chunks as rows), killed-sweep resume, and a bounded
    in-flight submission window.
    """
    return [
        result
        for _, result in stream_batch(
            jobs,
            n_jobs,
            window=window,
            persist=persist,
            resume=resume,
            pool=pool,
        )
    ]
