"""Persistent, content-addressed cost-profile cache.

Every experiment module needs the same expensive artifact: the full
``L(i)`` cost vector of the paper's Mandelbrot loop (a whole-grid
escape-time pass -- seconds of CPU at the 4000x2000 window).  The
vector is a pure function of the workload's construction parameters,
so it is cached **content-addressed**: :meth:`repro.workloads.Workload
.cost_key` hashes the parameters (class, size, max_iter, domain,
``S_f``/permutation) and this module maps the key to the vector through
two layers:

* an **in-memory LRU** (per-process, :data:`MEMORY_SLOTS` vectors) so
  repeated lookups inside one run are free;
* an **on-disk store** of ``.npy`` files under ``REPRO_CACHE_DIR``
  (default ``~/.cache/repro``) so a grid is computed once per machine,
  ever.  Files are written atomically (temp file + ``os.replace``) and
  carry a version stamp; corrupted or version-mismatched files are
  silently ignored and recomputed, never fatal.

The on-disk format is a plain 1-D float64 ``.npy`` whose first three
elements are a header -- ``[CACHE_VERSION, payload_length,
payload_crc32]`` -- followed by the cost vector.  The header lets a
reader reject stale formats, truncated writes and a flipped payload
byte (``zlib.crc32`` of the vector's bytes; a uint32 is exact in
float64) without a sidecar file.

The module keeps one process-wide active cache (:func:`get_cache`);
:func:`configure` swaps it, which is how the CLI's ``--cache-dir`` /
``--no-cache`` flags and the test suite's hermetic temp dirs plug in.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import tokenize
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Optional

import numpy as np

__all__ = [
    "CACHE_VERSION",
    "ENV_CACHE_DIR",
    "MEMORY_SLOTS",
    "default_cache_dir",
    "signature_key",
    "CostCache",
    "get_cache",
    "configure",
]

#: On-disk format version; bump when the file layout changes.
CACHE_VERSION = 2

#: Environment variable overriding the cache directory.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Header length (version stamp, payload length, payload CRC32) in
#: float64 slots.
_HEADER = 3

#: Vectors the in-memory LRU layer keeps per process.
MEMORY_SLOTS = 64


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro").expanduser()


def signature_key(signature: object) -> str:
    """Content address for a JSON-able signature (sha256 hex digest)."""
    blob = json.dumps(signature, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _wrap(costs: np.ndarray) -> np.ndarray:
    header = np.array([CACHE_VERSION, costs.size, zlib.crc32(costs)],
                      dtype=np.float64)
    return np.concatenate((header, costs))


def _unwrap(raw: object) -> Optional[np.ndarray]:
    """Validate a loaded file; ``None`` for anything malformed/stale."""
    if not isinstance(raw, np.ndarray):
        return None
    if raw.ndim != 1 or raw.dtype != np.float64 or raw.size < _HEADER:
        return None
    version, length, crc = raw[:_HEADER]
    payload = raw[_HEADER:]
    if version != CACHE_VERSION or length != payload.size \
            or crc != zlib.crc32(payload):
        return None
    return payload


class CostCache(object):
    """Two-layer (memory LRU + disk) store of cost vectors by key."""

    def __init__(
        self,
        directory: Optional[os.PathLike] = None,
        enabled: bool = True,
    ) -> None:
        self.directory = (
            Path(directory) if directory is not None else default_cache_dir()
        )
        self.enabled = bool(enabled)
        self._memory: OrderedDict[str, np.ndarray] = OrderedDict()
        self.hits = 0
        self.misses = 0

    # -- layout ----------------------------------------------------------------

    def path_for(self, key: str) -> Path:
        """On-disk location of one cache entry."""
        return self.directory / f"{key}.npy"

    # -- lookup ----------------------------------------------------------------

    def get(self, key: Optional[str]) -> Optional[np.ndarray]:
        """The cached vector for ``key``, or ``None`` on any miss.

        Disk problems of every kind (missing file, unreadable file,
        truncated write, garbled header, foreign format, stale version
        stamp, a payload whose CRC32 disagrees) count as misses: the
        caller recomputes and overwrites.
        """
        if not self.enabled or key is None:
            return None
        vec = self._memory.get(key)
        if vec is not None:
            self._memory.move_to_end(key)
            self.hits += 1
            return vec
        vec = self._load(key)
        if vec is None:
            self.misses += 1
            return None
        self.hits += 1
        self._remember(key, vec)
        return vec

    def _load(self, key: str) -> Optional[np.ndarray]:
        try:
            raw = np.load(self.path_for(key), allow_pickle=False)
        except (OSError, ValueError, EOFError, SyntaxError,
                tokenize.TokenError):
            # The last two are np.load's parse of a garbled header dict.
            return None
        vec = _unwrap(raw)
        if vec is None:
            return None
        vec = np.ascontiguousarray(vec)
        vec.setflags(write=False)
        return vec

    # -- store -----------------------------------------------------------------

    def put(self, key: Optional[str], costs: np.ndarray) -> None:
        """Store ``costs`` under ``key`` (memory + atomic disk write)."""
        if not self.enabled or key is None:
            return
        vec = np.ascontiguousarray(costs, dtype=np.float64)
        if vec.ndim != 1:
            raise ValueError(
                f"cost vectors must be 1-D, got shape {vec.shape}"
            )
        frozen = vec.copy()
        frozen.setflags(write=False)
        self._remember(key, frozen)
        try:
            self._store(key, frozen)
        except OSError:
            # A read-only or full disk degrades to memory-only caching.
            pass

    def _store(self, key: str, vec: np.ndarray) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=f".{key[:16]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                np.save(handle, _wrap(vec))
            os.replace(tmp, self.path_for(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _remember(self, key: str, vec: np.ndarray) -> None:
        self._memory[key] = vec
        self._memory.move_to_end(key)
        while len(self._memory) > MEMORY_SLOTS:
            self._memory.popitem(last=False)

    # -- maintenance ------------------------------------------------------------

    def clear_memory(self) -> None:
        """Drop the in-memory layer (the disk layer stays)."""
        self._memory.clear()

    def clear(self) -> None:
        """Drop both layers: memory and every on-disk entry."""
        self.clear_memory()
        if not self.directory.is_dir():
            return
        for path in self.directory.glob("*.npy"):
            try:
                path.unlink()
            except OSError:
                pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "on" if self.enabled else "off"
        return (
            f"<CostCache [{state}] dir={self.directory} "
            f"mem={len(self._memory)}/{MEMORY_SLOTS} "
            f"hits={self.hits} misses={self.misses}>"
        )


#: The process-wide active cache (created lazily; see :func:`get_cache`).
_active: Optional[CostCache] = None


def get_cache() -> CostCache:
    """The active process-wide cache, creating the default on first use."""
    global _active
    if _active is None:
        _active = CostCache()
    return _active


def configure(
    directory: Optional[os.PathLike] = None,
    enabled: bool = True,
) -> CostCache:
    """Replace the active cache (CLI flags, tests) and return it."""
    global _active
    _active = CostCache(directory=directory, enabled=enabled)
    return _active
