"""REP003 failing fixture: clock reads in a row's digest-visible
elements (a row is the eleven ObsEvent fields by position)."""

import time
import uuid

_SRC = "fixture"


class Engine:
    def chunk_bad(self, t: float, worker: int):
        # element 8 is ``value`` -> enters the canonical stream.
        self._emit((
            "compute", _SRC, t, worker,
            0, 4, None, None, time.time(), "", None,
        ))

    def result_bad(self, t: float, worker: int):
        # element 9 is ``detail``.
        self._emit((
            "result", _SRC, t, worker,
            0, 4, None, None, None, str(uuid.uuid4()), None,
        ))
