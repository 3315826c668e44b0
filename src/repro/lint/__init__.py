"""``repro.lint``: the determinism & concurrency static-analysis pass.

The repo's headline property -- simulator, fast-path, decentral,
runtime and service runs of one scheme are byte-diffable
(:func:`repro.obs.canonical_stream` / :func:`repro.obs.stream_digest`)
-- rests on a handful of coding conventions: seeded RNG everywhere, no
wall clock outside the ``t``/``wall`` event fields, fork hygiene in
the process pools, no blocking calls inside the asyncio daemon, and
closed string protocols (event kinds, service ops, scheme names).
This package machine-checks those conventions as named rules over the
AST, so a PR that would silently break digest
bit-identity fails the ``repro-lint`` gate instead of a probabilistic
tier-1 test.

Rule families (catalog with examples in ``docs/static_analysis.md``):

========  =============================================================
REP0xx    determinism: global/unseeded RNG, wall-clock or entropy in
          event payloads, unordered iteration and ``hash()`` in
          digest-critical code
REP1xx    fork & lock safety: bare ``acquire()``, threads or event
          loops created before a fork, worker code mutating module
          globals
REP2xx    async hygiene: blocking calls in ``async def``, un-awaited
          coroutines, dropped tasks
REP3xx    cross-file protocol checks: event kinds vs the
          ``obs.events`` schema, registry schemes vs kernel
          calculators and test references, wire ops vs
          ``service.protocol.OPS``
========  =============================================================

Everything here is stdlib-only (``ast``): the gate must run in every
environment the tests run in.  Entry points: the ``repro-lint``
console script (:mod:`repro.lint.cli`) and :func:`run_lint` for
programmatic use (the tier-1 test ``tests/lint/test_lint_clean.py``
runs it over ``src/``).
"""

from __future__ import annotations

from .engine import LintConfig, run_lint
from .findings import Finding
from .rules import RULES, rule_ids

__all__ = [
    "Finding",
    "LintConfig",
    "RULES",
    "rule_ids",
    "run_lint",
]
