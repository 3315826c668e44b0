"""The finding model: what every rule reports.

A :class:`Finding` is one rule violation at one source location.
"""

from __future__ import annotations

import dataclasses

__all__ = ["Finding", "PARSE_RULE"]

#: Pseudo-rule for files the engine cannot parse at all.
PARSE_RULE = "REP000"


@dataclasses.dataclass(frozen=True)
class Finding(object):
    """One rule violation at one location."""

    rule: str          #: rule id, e.g. ``"REP001"``
    path: str          #: path as given to the engine (repo-relative)
    line: int          #: 1-based line number (0 for file-level findings)
    message: str       #: human-readable explanation with the fix hint
    snippet: str = ""  #: stripped source line the finding anchors to

    def render(self) -> str:
        """``path:line: RULE message`` (the CLI text format)."""
        return f"{self.path}:{self.line}: {self.rule} {self.message}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "snippet": self.snippet,
        }
