"""The rule registry: one row per rule id.

``FILE_RULES`` run once per module; ``PROJECT_RULES`` run once over
the whole analyzed set (they correlate literals across files);
``REPO_RULES`` run once over it plus the root's consumers, each pinning
an invariant of the ``repro`` package to its one site.  The docs
generator and ``repro-lint --list-rules`` both render from here, so
adding a rule is: write the checker, add the row, add a good/bad
fixture pair under ``tests/lint/`` (for REP4xx, a mutant row in
``test_repo_rules.py``; see ``docs/static_analysis.md``).
"""

from __future__ import annotations

from . import async_rules, concurrency, determinism, protocol, repo
from .findings import PARSE_RULE

__all__ = ["FILE_RULES", "PROJECT_RULES", "REPO_RULES", "RULES"]

#: (rule id, one-line summary, checker) -- per-file rules.
FILE_RULES = (
    ("REP001", "call into the process-global RNG",
     determinism.check_rep001),
    ("REP002", "RNG constructed without a seed",
     determinism.check_rep002),
    ("REP003", "wall clock / entropy in event payloads or digest code",
     determinism.check_rep003),
    ("REP004", "iteration over an unordered set in digest code",
     determinism.check_rep004),
    ("REP005", "builtin hash() in digest code",
     determinism.check_rep005),
    ("REP101", "lock.acquire() without guaranteed release",
     concurrency.check_rep101),
    ("REP102", "thread or event loop created before a fork",
     concurrency.check_rep102),
    ("REP103", "worker entry mutating module-level state",
     concurrency.check_rep103),
    ("REP201", "blocking call inside async def",
     async_rules.check_rep201),
    ("REP202", "coroutine called but never awaited",
     async_rules.check_rep202),
    ("REP203", "create_task handle dropped",
     async_rules.check_rep203),
)

#: (rule id, one-line summary, checker) -- cross-file rules.
PROJECT_RULES = (
    ("REP301", "event kind not in the EVENT_KINDS schema",
     protocol.check_rep301),
    ("REP304", "registered scheme never referenced by tests",
     protocol.check_rep304),
    ("REP305", "wire op not in service.protocol.OPS",
     protocol.check_rep305),
)

#: (rule id, the invariant it pins, checker) -- repo rules.
REPO_RULES = tuple((rid, repo.INVARIANTS[rid], check) for rid, check in (
    ("REP401", repo.check_rep401), ("REP402", repo.check_rep402),
    ("REP403", repo.check_rep403), ("REP404", repo.check_rep404),
    ("REP405", repo.check_rep405), ("REP406", repo.check_rep406),
    ("REP407", repo.check_rep407), ("REP408", repo.check_rep408),
    ("REP409", repo.check_rep409), ("REP410", repo.check_rep410),
))

#: ``{rule id: one-line summary}`` for every rule (parse errors too).
RULES = {
    PARSE_RULE: "file does not parse",
    **{rid: summary for rid, summary, _ in FILE_RULES},
    **{rid: summary for rid, summary, _ in PROJECT_RULES},
    **{rid: summary for rid, summary, _ in REPO_RULES},
}
