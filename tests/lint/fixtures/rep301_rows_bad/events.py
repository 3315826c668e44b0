"""The schema authority for this tree."""

EVENT_KINDS = frozenset({"compute", "result"})
