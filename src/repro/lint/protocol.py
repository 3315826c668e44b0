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
from typing import Iterator, Optional

from ._util import EMIT_HELPERS, call_tail
from .engine import LintConfig, ModuleInfo
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
    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.Call):
            continue
        tail = call_tail(node)
        if tail == "ObsEvent":
            if node.args and isinstance(node.args[0], ast.Constant) \
                    and isinstance(node.args[0].value, str):
                yield node.args[0].value, node.args[0]
            for kw in node.keywords:
                if kw.arg == "kind" \
                        and isinstance(kw.value, ast.Constant) \
                        and isinstance(kw.value.value, str):
                    yield kw.value.value, kw.value
        elif tail in EMIT_HELPERS and node.args:
            first = node.args[0]
            if isinstance(first, ast.Tuple) and first.elts:
                first = first.elts[0]  # a row: the kind is element 0
            if isinstance(first, ast.Constant) \
                    and isinstance(first.value, str):
                yield first.value, first


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
    for root, dirs, names in os.walk(tests_dir):
        dirs[:] = [d for d in dirs
                   if not d.startswith(".") and d != "__pycache__"]
        for name in sorted(names):
            if not name.endswith(".py"):
                continue
            try:
                with open(os.path.join(root, name), "r",
                          encoding="utf-8") as handle:
                    chunks.append(handle.read())
            except OSError:
                continue
    return "\n".join(chunks)


def check_rep304(modules, config: LintConfig) -> Iterator[Finding]:
    """REP304: registered scheme never referenced by the test suite."""
    schemes = _declared(modules, "SCHEMES")
    tests_dir: Optional[str] = config.tests_dir
    if not schemes or not tests_dir or not os.path.isdir(tests_dir):
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
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Constant) and key.value == "op" \
                        and isinstance(value, ast.Constant) \
                        and isinstance(value.value, str):
                    yield value.value, value
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript) \
                        and isinstance(target.slice, ast.Constant) \
                        and target.slice.value == "op" \
                        and isinstance(node.value, ast.Constant) \
                        and isinstance(node.value.value, str):
                    yield node.value.value, node.value
        elif isinstance(node, ast.Compare) and len(node.ops) == 1 \
                and isinstance(node.ops[0], (ast.In, ast.NotIn)):
            if not ((isinstance(node.left, ast.Name)
                     and node.left.id == "op")
                    or (isinstance(node.left, ast.Attribute)
                        and node.left.attr == "op")):
                continue
            container = node.comparators[0]
            if isinstance(container, (ast.Tuple, ast.List, ast.Set)):
                for elt in container.elts:
                    if isinstance(elt, ast.Constant) \
                            and isinstance(elt.value, str):
                        yield elt.value, elt
        elif isinstance(node, ast.Compare) and len(node.ops) == 1 \
                and isinstance(node.ops[0], (ast.Eq, ast.NotEq)):
            sides = (node.left, *node.comparators)
            names = [
                s for s in sides
                if (isinstance(s, ast.Name) and s.id == "op")
                or (isinstance(s, ast.Attribute) and s.attr == "op")
            ]
            if not names:
                continue
            for side in sides:
                if isinstance(side, ast.Constant) \
                        and isinstance(side.value, str):
                    yield side.value, side


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
