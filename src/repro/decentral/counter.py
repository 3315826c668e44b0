"""SIGKILL-safe shared counters: the decentral coordination point.

The decentral runtime needs one primitive: an atomic *fetch-and-add*
over a counter every worker process can reach -- the shared-memory
analog of the MPI passive-target RMA window in arXiv:1901.02773.  The
implementation here is an 8-byte little-endian integer in a plain file,
arbitrated by ``fcntl.flock``:

* **fetch_add** takes the exclusive lock, ``pread``s the value,
  ``pwrite``s value+amount, releases.  Two syscalls under a kernel
  lock -- tens of microseconds, far below any chunk's compute time.
* **crash safety** is the reason for this design over a
  ``multiprocessing.Value``/``SharedMemory`` + ``mp.Lock`` pair: a
  worker SIGKILLed *while holding the lock* would leave an mp.Lock
  locked forever (deadlock) -- whereas the kernel releases ``flock``
  locks when the holder's last file descriptor closes, which process
  death guarantees.  Counter-holder death therefore needs no watchdog,
  no timeout, no force-release heuristics.  A holder killed between
  the read and the write leaves the *old* value behind; the interval
  it was about to claim is simply claimed by someone else, and the
  merge layer (``executor._merge_shards``) dedupes by chunk ordinal.
* the file doubles as the lock *and* the value, so there is exactly
  one object to create, inherit, and clean up.

:class:`LeasedCounter` layers the hierarchical (MPI+MPI) mode on top:
a per-group counter file holds ``(next_local, lease_end)``; group
members claim locally, and whoever finds the lease empty refills it
with one ``fetch_add(lease)`` on the global counter -- turning ``k``
global atomics into ``1`` per ``lease`` chunks.
"""

from __future__ import annotations

import os
import struct

__all__ = ["SharedCounter", "LeasedCounter"]

try:  # pragma: no cover - import guard, exercised only off-POSIX
    import fcntl
except ImportError:  # pragma: no cover
    # Canonical import-guard idiom: the module-object name is rebound
    # to None off-POSIX and every use goes through _require_fcntl().
    # The ignore is deliberate and stays (mypy has no way to type a
    # "module or None" sentinel).
    fcntl = None  # type: ignore[assignment]

_WORD = struct.Struct("<q")
_PAIR = struct.Struct("<qq")


def _require_fcntl() -> None:
    if fcntl is None:  # pragma: no cover - POSIX everywhere we run
        raise RuntimeError(
            "repro.decentral needs fcntl.flock for its SIGKILL-safe "
            "shared counter; this platform does not provide it"
        )


class SharedCounter(object):
    """Fetch-and-add over an flock-arbitrated 8-byte counter file.

    Instances are cheap handles: they open the file lazily and drop
    the descriptor when pickled, so passing one to a worker process
    (fork or spawn) just re-opens the same path.
    """

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        self._fd: int | None = None

    @classmethod
    def create(cls, path: str, value: int = 0) -> "SharedCounter":
        """Create (or reset) the counter file at ``path``."""
        _require_fcntl()
        fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o600)
        try:
            os.pwrite(fd, _WORD.pack(value), 0)
        finally:
            os.close(fd)
        return cls(path)

    # -- plumbing ----------------------------------------------------------

    def _handle(self) -> int:
        if self._fd is None:
            _require_fcntl()
            self._fd = os.open(self.path, os.O_RDWR)
        return self._fd

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __getstate__(self) -> dict:
        return {"path": self.path}

    def __setstate__(self, state: dict) -> None:
        self.path = state["path"]
        self._fd = None

    def __enter__(self) -> "SharedCounter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the primitive -----------------------------------------------------

    def fetch_add(self, amount: int = 1) -> int:
        """Atomically add ``amount``; return the *previous* value."""
        fd = self._handle()
        fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            value = _WORD.unpack(os.pread(fd, _WORD.size, 0))[0]
            os.pwrite(fd, _WORD.pack(value + amount), 0)
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
        return value

    def peek(self) -> int:
        """Read the current value (under a shared lock)."""
        fd = self._handle()
        fcntl.flock(fd, fcntl.LOCK_SH)
        try:
            return _WORD.unpack(os.pread(fd, _WORD.size, 0))[0]
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)

    def lock(self) -> None:
        """Take the exclusive lock and keep it until :meth:`unlock`.

        Fault injection: models a stalled counter host -- every
        concurrent ``fetch_add`` blocks until release (the decentral
        analog of a master stall).
        """
        fcntl.flock(self._handle(), fcntl.LOCK_EX)

    def unlock(self) -> None:
        """Release the lock :meth:`lock` took."""
        fcntl.flock(self._handle(), fcntl.LOCK_UN)


class LeasedCounter(object):
    """Group-local counter that leases index blocks from a global one.

    The group file holds ``(next_local, lease_end)`` under its own
    flock.  :meth:`claim` serves from the local range; on exhaustion
    the claiming member refills via ``global_counter.fetch_add(lease)``
    *while still holding the group lock*, so exactly one member refills
    and the lease is handed out without gaps.  A member SIGKILLed at
    any point leaves the pair consistent (the kernel releases both
    locks); at worst the indices it claimed-but-never-recorded are
    re-executed by the merge layer's repair pass.

    Returned indices may be ``>= limit`` once the global range is
    exhausted: callers treat any such claim as "no more work" (the
    over-claimed indices are never part of the loop, so nothing leaks).
    """

    def __init__(
        self,
        path: str,
        global_counter: SharedCounter,
        lease: int,
        limit: int,
    ) -> None:
        if lease < 1:
            raise ValueError(f"lease must be >= 1, got {lease}")
        self.path = os.fspath(path)
        self.global_counter = global_counter
        self.lease = int(lease)
        self.limit = int(limit)
        self._fd: int | None = None

    @classmethod
    def create(
        cls,
        path: str,
        global_counter: SharedCounter,
        lease: int,
        limit: int,
    ) -> "LeasedCounter":
        """Create the group file with an empty (exhausted) lease."""
        _require_fcntl()
        fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o600)
        try:
            os.pwrite(fd, _PAIR.pack(0, 0), 0)
        finally:
            os.close(fd)
        return cls(path, global_counter, lease, limit)

    def _handle(self) -> int:
        if self._fd is None:
            _require_fcntl()
            self._fd = os.open(self.path, os.O_RDWR)
        return self._fd

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        self.global_counter.close()

    def __getstate__(self) -> dict:
        return {
            "path": self.path,
            "global_counter": self.global_counter,
            "lease": self.lease,
            "limit": self.limit,
        }

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._fd = None

    def claim(self) -> tuple[int, bool]:
        """Claim the next index; returns ``(index, refilled)``.

        ``refilled`` is True when this claim paid a *global* atomic
        (lease refill) rather than a group-local one -- the statistic
        the hierarchical mode exists to improve.
        """
        fd = self._handle()
        fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            local, end = _PAIR.unpack(os.pread(fd, _PAIR.size, 0))
            if local < end:
                os.pwrite(fd, _PAIR.pack(local + 1, end), 0)
                return local, False
            base = self.global_counter.fetch_add(self.lease)
            os.pwrite(fd, _PAIR.pack(base + 1, base + self.lease), 0)
            return base, True
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
