"""REP003 passing fixture: a row's clock reads confined to elements 2
and 10 (``t`` and ``wall``, which canonical_stream strips)."""

import time

_SRC = "fixture"


class Engine:
    def chunk_ok(self, worker: int, cost: float):
        self._emit((
            "compute", _SRC, time.time(), worker,
            0, 4, None, None, cost, "", time.time(),
        ))
