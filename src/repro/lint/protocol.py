"""REP3xx -- cross-file protocol rules.

The repo's string protocols are *closed*: an ObsEvent ``kind`` must be
declared in ``repro.obs.events.EVENT_KINDS`` (the auditor and the
canonical stream reject or mis-classify unknown kinds), a wire ``op``
must be one the daemon dispatches (``repro.service.protocol.OPS``),
and every scheme in ``core.registry.SCHEMES`` needs a test that
references it.  These rules read the authoritative literals from
whatever modules in the analyzed tree declare them (see
:mod:`repro.lint.engine`), so they work on fixture trees too.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Iterator

from ._util import EMIT_HELPERS, call_tail, is_str, name_of
from .engine import LintConfig, ModuleInfo, _collect_files
from .findings import Finding

__all__ = ["check_rep301", "check_rep304", "check_rep305"]


def _declared(modules, name: str):
    """Merged ``{literal: (module, line)}`` across declaring modules."""
    merged: dict[str, tuple] = {}
    for mod in modules:
        for literal, line in mod.protocol_sets.get(name, ()):
            merged.setdefault(literal, (mod, line))
    return merged


def _emitted_kinds(mod: ModuleInfo):
    """(kind, node) for every statically-visible kind emission: an
    ``ObsEvent(...)`` call, or an emit helper's first argument -- a
    kind string, or a row's element 0."""
    for node in mod.nodes:
        tail = call_tail(node) if isinstance(node, ast.Call) else ""
        if tail == "ObsEvent":
            kinds = [*node.args[:1],
                     *(kw.value for kw in node.keywords if kw.arg == "kind")]
        elif tail in EMIT_HELPERS and node.args:
            kinds = [node.args[0]]
            if isinstance(kinds[0], ast.Tuple) and kinds[0].elts:
                kinds = kinds[0].elts[:1]  # a row: the kind is element 0
        else:
            continue
        yield from ((kind.value, kind) for kind in kinds if is_str(kind))


def check_rep301(modules, config: LintConfig) -> Iterator[Finding]:
    """REP301: emitted event kind missing from ``EVENT_KINDS``."""
    kinds = _declared(modules, "EVENT_KINDS")
    if not kinds:
        return
    for mod in modules:
        for kind, node in _emitted_kinds(mod):
            if kind not in kinds:
                yield mod.finding(
                    "REP301", node,
                    f"event kind {kind!r} is not declared in "
                    f"EVENT_KINDS (obs/events.py): the auditor will "
                    f"reject it and canonical streams cannot classify "
                    f"it; add it to the schema or fix the literal "
                    f"(known: {', '.join(sorted(kinds))})",
                )


def _tests_text(tests_dir: str) -> str:
    chunks: list[str] = []
    for path in _collect_files([tests_dir]):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                chunks.append(handle.read())
        except OSError:
            continue
    return "\n".join(chunks)


def check_rep304(modules, config: LintConfig) -> Iterator[Finding]:
    """REP304: registered scheme never referenced by the test suite."""
    schemes = _declared(modules, "SCHEMES")
    tests_dir = os.path.join(config.root or "", "tests")
    if not schemes or config.root is None or not os.path.isdir(tests_dir):
        return
    text = _tests_text(tests_dir)
    for name, (mod, line) in sorted(schemes.items()):
        if not re.search(rf"\b{re.escape(name)}\b", text):
            yield mod.finding(
                "REP304", line,
                f"scheme {name!r} appears nowhere under "
                f"{tests_dir}: an untested scheme has no reference "
                f"digest, so nothing would notice it breaking",
            )


def _op_literals(mod: ModuleInfo):
    """(op, node) for wire-op string literals: ``{"op": "x"}`` dict
    entries, ``doc["op"] = "x"`` assignments, ``op == "x"``
    comparisons, and ``op in ("x", "y")`` membership tests (the shape
    a dispatch arm handling aliased ops takes)."""
    for node in mod.nodes:
        if isinstance(node, ast.Dict):
            ops = [value for key, value in zip(node.keys, node.values)
                   if is_str(key) and key.value == "op"]
        elif isinstance(node, ast.Assign):
            ops = [node.value for target in node.targets
                   if isinstance(target, ast.Subscript)
                   and is_str(target.slice) and target.slice.value == "op"]
        elif isinstance(node, ast.Compare) and len(node.ops) == 1:
            sides = [node.left, *node.comparators]
            if isinstance(node.ops[0], (ast.In, ast.NotIn)) \
                    and name_of(node.left) == "op" \
                    and isinstance(sides[1], (ast.Tuple, ast.List, ast.Set)):
                ops = sides[1].elts
            elif isinstance(node.ops[0], (ast.Eq, ast.NotEq)) \
                    and any(name_of(side) == "op" for side in sides):
                ops = sides
            else:
                continue
        else:
            continue
        yield from ((op.value, op) for op in ops if is_str(op))


def check_rep305(modules, config: LintConfig) -> Iterator[Finding]:
    """REP305: wire op literal missing from ``service.protocol.OPS``."""
    ops = _declared(modules, "OPS")
    if not ops:
        return
    for mod in modules:
        if "OPS" in mod.protocol_sets:
            continue  # the declaration itself is not a use
        for op, node in _op_literals(mod):
            if op not in ops:
                yield mod.finding(
                    "REP305", node,
                    f"wire op {op!r} is not in service.protocol.OPS: "
                    f"the daemon would answer 'unknown-op'; add it to "
                    f"OPS and a dispatch arm, or fix the literal "
                    f"(known: {', '.join(sorted(ops))})",
                )
