"""REP0xx -- determinism rules.

The canonical-stream digests (PR 4/6/8) are only byte-stable if no
code path consults ambient nondeterminism: the process-global RNG, an
unseeded generator, the wall clock (outside the schema's ``t``/``wall``
fields, which :func:`repro.obs.export.canonical_stream` strips),
OS entropy, hash-seed-dependent ``hash()``, or set iteration order
(string sets reorder under ``PYTHONHASHSEED``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ._util import (
    call_tail, dotted_name, emitted_row, enclosing_functions, parent_map,
)
from .engine import LintConfig, ModuleInfo
from .findings import Finding

__all__ = [
    "check_rep001", "check_rep002", "check_rep003",
    "check_rep004", "check_rep005",
]

#: ``random.<fn>`` module-level functions that drive the *shared*
#: process-global generator.
_GLOBAL_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "getrandbits", "randbytes",
    "choice", "choices", "shuffle", "sample", "uniform", "triangular",
    "betavariate", "expovariate", "gammavariate", "gauss",
    "lognormvariate", "normalvariate", "vonmisesvariate",
    "paretovariate", "weibullvariate", "seed",
})

#: Legacy ``np.random.<fn>`` global-state functions (the pre-Generator
#: API); ``default_rng(seed)`` is the sanctioned spelling.
_NP_GLOBAL_FNS = frozenset({
    "seed", "rand", "randn", "randint", "random", "random_sample",
    "ranf", "choice", "shuffle", "permutation", "uniform", "normal",
    "standard_normal", "exponential", "poisson", "bytes",
})

#: Calls that read the wall clock or OS entropy.
_TAINTED_CALLS = frozenset({
    "time.time", "time.time_ns", "datetime.now", "datetime.utcnow",
    "uuid.uuid1", "uuid.uuid4", "uuid1", "uuid4",
    "os.urandom", "urandom", "os.getrandom", "secrets.token_bytes",
    "secrets.token_hex",
})


def _from_random_imports(mod: ModuleInfo) -> set:
    return {alias.asname or alias.name for node in mod.nodes
            if isinstance(node, ast.ImportFrom) and node.module == "random"
            for alias in node.names}


def check_rep001(mod: ModuleInfo, config: LintConfig) -> Iterator[Finding]:
    """REP001: call into the process-global RNG."""
    bare = _from_random_imports(mod)
    for node in mod.nodes:
        if not isinstance(node, ast.Call):
            continue
        callee = dotted_name(node.func)
        if callee is None:
            continue
        parts = callee.split(".")
        hit = None
        if len(parts) == 2 and parts[0] == "random" \
                and parts[1] in _GLOBAL_RANDOM_FNS:
            hit = callee
        elif len(parts) == 1 and parts[0] in bare \
                and parts[0] in _GLOBAL_RANDOM_FNS:
            hit = f"random.{parts[0]}"
        elif len(parts) >= 3 and parts[0] in ("np", "numpy") \
                and parts[-2] == "random" \
                and parts[-1] in _NP_GLOBAL_FNS:
            hit = callee
        if hit is not None:
            yield mod.finding(
                "REP001", node,
                f"{hit}() drives the process-global RNG, which any "
                f"import may have advanced; thread a seeded "
                f"random.Random(seed) / np.random.default_rng(seed) "
                f"through instead",
            )


def check_rep002(mod: ModuleInfo, config: LintConfig) -> Iterator[Finding]:
    """REP002: RNG constructed without a seed (or from OS entropy)."""
    bare = _from_random_imports(mod)
    for node in mod.nodes:
        if not isinstance(node, ast.Call):
            continue
        callee = dotted_name(node.func)
        if callee is None:
            continue
        tail = callee.rsplit(".", 1)[-1]
        if tail == "SystemRandom" and (
            callee.startswith("random.") or callee in bare
        ):
            yield mod.finding(
                "REP002", node,
                "SystemRandom draws OS entropy and can never replay; "
                "use a seeded random.Random(seed)",
            )
            continue
        is_random_ctor = callee == "random.Random" or (
            callee == "Random" and "Random" in bare
        )
        is_default_rng = tail == "default_rng"
        if (is_random_ctor or is_default_rng) \
                and not node.args and not node.keywords:
            yield mod.finding(
                "REP002", node,
                f"{callee}() without a seed falls back to OS entropy; "
                f"pass an explicit seed so reruns are bit-identical",
            )


def _tainted(node: ast.Call) -> bool:
    callee = dotted_name(node.func)
    return callee is not None and callee in _TAINTED_CALLS


def check_rep003(mod: ModuleInfo, config: LintConfig) -> Iterator[Finding]:
    """REP003: wall clock / entropy flowing into event payloads or
    digest inputs.

    ``ObsEvent``'s ``t`` (third positional) and ``wall`` fields are
    stripped by ``canonical_stream``, so clock reads may feed exactly
    those; any other field becomes part of the digest surface.  A row
    handed to an emit helper (a tuple display) is the same eleven
    fields by position: elements 2 and 10 are ``t`` and ``wall``.  In
    digest-critical modules *every* tainted call is flagged.
    """
    flagged: set = set()
    for node in mod.nodes:
        if not isinstance(node, ast.Call):
            continue
        row = emitted_row(node)
        if row is not None:
            what = "an event row element"
            suspect_roots = [
                elt for idx, elt in enumerate(row.elts)
                if idx not in (2, 10)
            ]
        elif call_tail(node) == "ObsEvent":
            what = "an ObsEvent field"
            suspect_roots = [
                # slot 2 is ``t``, excluded from the digest
                arg for idx, arg in enumerate(node.args) if idx != 2
            ]
            suspect_roots += [
                kw.value for kw in node.keywords
                if kw.arg not in ("t", "wall")
            ]
        else:
            continue
        for root in suspect_roots:
            for sub in ast.walk(root):
                if isinstance(sub, ast.Call) and _tainted(sub):
                    flagged.add(id(sub))
                    yield mod.finding(
                        "REP003", sub,
                        f"{dotted_name(sub.func)}() inside {what} "
                        f"other than t/wall enters the canonical "
                        f"stream and breaks digest bit-identity; only "
                        f"t and wall may carry clock reads",
                    )
    if mod.digest_critical:
        for node in mod.nodes:
            if isinstance(node, ast.Call) and _tainted(node) \
                    and id(node) not in flagged:
                yield mod.finding(
                    "REP003", node,
                    f"{dotted_name(node.func)}() in digest-critical "
                    f"code (canonical_stream/verify); digests must "
                    f"depend only on the event stream",
                )


def _is_unordered_iterable(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return dotted_name(node.func) in ("set", "frozenset")
    return False


def check_rep004(mod: ModuleInfo, config: LintConfig) -> Iterator[Finding]:
    """REP004: iteration over an unordered set in digest-critical code."""
    if not mod.digest_critical:
        return
    hint = (
        "set iteration order depends on PYTHONHASHSEED for str "
        "elements; wrap in sorted(...) before it can influence the "
        "canonical stream"
    )
    for node in mod.nodes:
        if isinstance(node, (ast.For, ast.AsyncFor)) \
                and _is_unordered_iterable(node.iter):
            yield mod.finding(
                "REP004", node.iter,
                f"for-loop over an unordered set in digest-critical "
                f"code; {hint}",
            )
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                               ast.DictComp, ast.SetComp)):
            for gen in node.generators:
                if _is_unordered_iterable(gen.iter):
                    yield mod.finding(
                        "REP004", gen.iter,
                        f"comprehension over an unordered set in "
                        f"digest-critical code; {hint}",
                    )
        elif isinstance(node, ast.Call) \
                and call_tail(node) in ("join", "list", "tuple") \
                and len(node.args) == 1 \
                and _is_unordered_iterable(node.args[0]):
            yield mod.finding(
                "REP004", node.args[0],
                f"{call_tail(node)}() materializes an unordered set "
                f"in digest-critical code; {hint}",
            )


def check_rep005(mod: ModuleInfo, config: LintConfig) -> Iterator[Finding]:
    """REP005: builtin ``hash()`` in digest-critical code."""
    if not mod.digest_critical:
        return
    parents = parent_map(mod.tree)
    for node in mod.nodes:
        if not isinstance(node, ast.Call):
            continue
        if not (isinstance(node.func, ast.Name)
                and node.func.id == "hash"):
            continue
        inside_dunder = any(
            fn.name == "__hash__"
            for fn in enclosing_functions(node, parents)
        )
        if inside_dunder:
            continue
        yield mod.finding(
            "REP005", node,
            "builtin hash() is salted per process (PYTHONHASHSEED) "
            "for str/bytes; digest-critical code must use "
            "hashlib.sha256 over a canonical encoding",
        )
