"""Rows handed to an emit helper: element 0 is the kind."""

_SRC = "engine"


class Engine:
    def chunk(self, t: float, worker: int) -> None:
        self._emit((
            "compoote", _SRC, t, worker,               # typo -> REP301
            0, 4, None, None, 0.5, "", None,
        ))
        self._emit((
            "deliver", _SRC, t, worker,                # undeclared -> REP301
            0, 4, None, None, None, "", None,
        ))
