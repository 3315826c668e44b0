"""Process guard: no process a run starts may outlive it.

Installed by ``run.py`` before the first fork.  The guarantees, and
where each comes from:

* the harness dies by SIGKILL -> every fork child (service pool
  worker, ``ProcessPoolExecutor`` worker) dies with it:
  ``PR_SET_PDEATHSIG = SIGKILL`` set in the child by an
  ``os.register_at_fork`` hook;
* the harness gets SIGTERM / SIGINT, overruns its own deadline
  (``setitimer``), or simply finishes -> one exit path,
  :meth:`Guard.finish`: kill every descendant still alive, wait for
  the direct children, check nothing is left, print the result line
  (normal end only), flush, ``os._exit``.  ``os._exit`` because the
  service pool's workers are non-daemonic and ``multiprocessing``'s
  atexit join must never be what ends the run;
* only the ``fork`` start method is in play (the service pool's
  default and the executor's default here), so no ``spawn`` /
  ``forkserver`` helper and no ``resource_tracker`` process exists.

The run marker (:data:`MARKER_ENV`) is exported to the environment so
a supervisor can find exec'd descendants in ``/proc/*/environ``; a
fork-only child shows its parent's *initial* environment there, so the
self-test passes the marker in from outside and this module keeps
whatever value it finds.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import sys
import time
from typing import NoReturn, Optional

MARKER_ENV = "REPRO_LEDGER_RUN"

_PR_SET_PDEATHSIG = 1

#: Exit codes of the abnormal paths (a failed output check exits 1).
EXIT_SIGNAL = 3
EXIT_DEADLINE = 4
EXIT_LEFTOVER = 5


def stat_fields(pid) -> Optional[list]:
    """Fields of ``/proc/<pid>/stat`` from the state on (index 0 is the
    state, 1 the ppid, 11/12 utime/stime), or None if it is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            # comm may contain spaces; fields count from after ')'.
            return fh.read().rsplit(b")", 1)[1].split()
    except (OSError, IndexError):
        return None


def _proc_table() -> dict[int, int]:
    """``{pid: ppid}`` of every live process."""
    table = {}
    for name in os.listdir("/proc"):
        fields = stat_fields(name) if name.isdigit() else None
        if fields and fields[0] != b"Z":  # a zombie holds no resources
            table[int(name)] = int(fields[1])
    return table


def descendants(root: int) -> list[int]:
    """Live processes whose ancestry leads to ``root``."""
    table = _proc_table()
    found: list[int] = []
    frontier = [root]
    while frontier:
        parent = frontier.pop()
        for pid, ppid in table.items():
            if ppid == parent:
                found.append(pid)
                frontier.append(pid)
    return found


def marked_processes(marker: str, exclude: int = 0) -> list[int]:
    """Processes whose ``/proc/<pid>/environ`` carries the marker."""
    needle = f"{MARKER_ENV}={marker}".encode()
    hits = []
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == exclude:
            continue
        try:
            with open(f"/proc/{name}/environ", "rb") as fh:
                env = fh.read()
        except OSError:
            continue
        fields = stat_fields(name)
        if needle in env.split(b"\0") and fields and fields[0] != b"Z":
            hits.append(int(name))
    return hits


class Guard(object):
    """One run's process guard (see module doc)."""

    def __init__(self, deadline_s: float) -> None:
        self.pid = os.getpid()
        self.marker = os.environ.setdefault(
            MARKER_ENV, f"{self.pid}-{time.time_ns():x}"
        )
        self._finishing = False
        #: called once everything is stopped (removes the run's files)
        self.cleanup = lambda: None
        libc = ctypes.CDLL(None, use_errno=True)
        self._prctl = libc.prctl
        self._prctl.argtypes = [
            ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
            ctypes.c_ulong, ctypes.c_ulong,
        ]
        self._prctl.restype = ctypes.c_int
        os.register_at_fork(after_in_child=self._after_fork_in_child)
        for sig in (signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, self._on_signal)
        signal.signal(signal.SIGALRM, self._on_deadline)
        signal.setitimer(signal.ITIMER_REAL, deadline_s)

    # -- hooks -------------------------------------------------------------

    def _after_fork_in_child(self) -> None:
        self._prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
        # The parent may have died between fork and prctl.
        if os.getppid() != self.pid:
            os._exit(EXIT_SIGNAL)
        # The child is not the harness: it must not run the harness's
        # exit path on a signal (finish() also checks the pid).
        for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGALRM):
            signal.signal(sig, signal.SIG_DFL)

    def _on_signal(self, signum, frame) -> None:
        self.finish(EXIT_SIGNAL, None, f"signal {signum}")

    def _on_deadline(self, signum, frame) -> None:
        self.finish(EXIT_DEADLINE, None, "self-imposed deadline passed")

    # -- the one exit path -------------------------------------------------

    def reap(self) -> list[int]:
        """Kill and wait for every descendant; returns survivors."""
        for _ in range(3):
            alive = descendants(self.pid)
            if not alive:
                break
            for pid in alive:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                try:
                    done, _status = os.waitpid(-1, os.WNOHANG)
                except ChildProcessError:
                    break  # no direct children left
                if done == 0:
                    if not descendants(self.pid):
                        break
                    time.sleep(0.01)
        # Zombies of children the libraries never joined.
        while True:
            try:
                done, _status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break
            if done == 0:
                break
        return descendants(self.pid)

    def finish(self, code: int, result: Optional[dict],
               why: str = "") -> NoReturn:
        """Stop everything, print the result line if any, exit."""
        if self._finishing or os.getpid() != self.pid:
            os._exit(code)
        self._finishing = True
        signal.setitimer(signal.ITIMER_REAL, 0)
        for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGALRM):
            signal.signal(sig, signal.SIG_IGN)
        left = self.reap()
        self.cleanup()
        if why:
            print(f"ledger: {why}", file=sys.stderr)
        if left:
            print(f"ledger: processes left running: {left}",
                  file=sys.stderr)
            code, result = EXIT_LEFTOVER, None
        if result is not None:
            sys.stdout.write(json.dumps(result) + "\n")
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)
