"""Every row's kind (element 0) is declared in the schema."""

_SRC = "engine"


class Engine:
    def chunk(self, t: float, worker: int) -> None:
        self._emit((
            "compute", _SRC, t, worker,
            0, 4, None, None, 0.5, "", None,
        ))
        self._emit((
            "result", _SRC, t, worker,
            0, 4, None, None, None, "", None,
        ))
