"""Matrix-addition background load -- the paper's nondedicated stressor.

For the *nondedicated* experiments the paper "started resource expensive
processes on some slaves.  Two such processes are started.  Each one
adds two random matrices of size 1000."  :func:`matrix_add_load` is
that stressor for the multiprocessing runtime: a process target that
repeatedly adds two random matrices until told to stop, pinning a CPU
exactly like the paper's load.
"""

from __future__ import annotations

import numpy as np

from .base import WorkloadError

__all__ = ["matrix_add_load"]


def matrix_add_load(
    stop_event, size: int = 1000, seed: int = 0, max_rounds: int | None = None
) -> int:
    """Busy-load loop: repeatedly add two random ``size x size`` matrices.

    Designed as a :class:`multiprocessing.Process` target.  Runs until
    ``stop_event`` (a :class:`multiprocessing.Event`-alike with
    ``is_set``) fires or ``max_rounds`` is reached; returns the number
    of additions performed (useful in tests).
    """
    if size < 1:
        raise WorkloadError(f"matrix size must be >= 1, got {size}")
    rng = np.random.default_rng(seed)
    a = rng.random((size, size))
    b = rng.random((size, size))
    rounds = 0
    while not stop_event.is_set():
        np.add(a, b)
        rounds += 1
        if max_rounds is not None and rounds >= max_rounds:
            break
    return rounds

