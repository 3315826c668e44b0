"""Shared AST helpers for the rule modules."""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from .engine import dotted_name

__all__ = [
    "dotted_name",
    "parent_map",
    "enclosing_functions",
    "call_tail",
    "name_of",
    "is_str",
    "call_statements",
    "EMIT_HELPERS",
    "emitted_row",
]

#: Helper callees that hand one event on: a string first argument is
#: the event's kind, a tuple display is the event as a *row* (the
#: eleven ``ObsEvent`` fields by position).
EMIT_HELPERS = frozenset({"emit", "_emit", "dump_event"})


def parent_map(tree: ast.AST) -> dict:
    """``{id(child): parent}`` for every node in ``tree``."""
    parents: dict[int, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents


def enclosing_functions(
    node: ast.AST, parents: dict
) -> Iterator[ast.AST]:
    """Function/AsyncFunction defs around ``node``, innermost first."""
    current: Optional[ast.AST] = parents.get(id(node))
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield current
        current = parents.get(id(current))


def call_tail(node: ast.Call) -> str:
    """Last attribute segment of the callee (``''`` when unnameable).

    Unlike :func:`dotted_name` this also answers for methods on
    non-name receivers -- ``",".join(...)``, ``parts[0].append(...)``
    -- where only the method name is knowable statically.
    """
    name = dotted_name(node.func)
    if name:
        return name.rsplit(".", 1)[-1]
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return ""


def name_of(node) -> str:
    """A Name's id or an Attribute's attr (``''`` for other nodes)."""
    return getattr(node, "attr", None) or getattr(node, "id", "")


def is_str(node) -> bool:
    """``node`` is a string constant."""
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def call_statements(nodes) -> Iterator[tuple[ast.Expr, ast.Call]]:
    """``(statement, call)`` for each bare call statement in ``nodes``
    (a result nobody keeps)."""
    for node in nodes:
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            yield node, node.value


def emitted_row(node: ast.Call) -> Optional[ast.Tuple]:
    """The tuple display ``node`` emits as a row, else ``None``.

    The per-chunk emission sites write ``self._emit((kind, source, t,
    ..., wall))``: element 0 is the kind, 2 is ``t`` and 10 ``wall``.
    """
    if call_tail(node) in EMIT_HELPERS and node.args \
            and isinstance(node.args[0], ast.Tuple):
        return node.args[0]
    return None
