"""REP2xx -- async hygiene rules for the service daemon.

``repro.service.server`` multiplexes every tenant on one event loop;
a single blocking call starves all of them (and the drain path), an
un-awaited coroutine silently does nothing, and a task whose handle
is dropped can be garbage-collected mid-flight -- all three have
bitten real asyncio services and none is caught by tests that happen
to finish fast.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ._util import call_statements, call_tail, dotted_name
from .engine import LintConfig, ModuleInfo
from .findings import Finding

__all__ = ["check_rep201", "check_rep202", "check_rep203"]

#: Dotted callees that block the loop outright.
_BLOCKING_CALLS = frozenset({
    "time.sleep",
    "os.system", "os.popen", "os.wait", "os.waitpid",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
    "socket.create_connection", "socket.getaddrinfo",
    "urllib.request.urlopen",
    "requests.get", "requests.post", "requests.put",
    "requests.delete", "requests.head", "requests.request",
    "input",
})

#: Bare builtins that block (checked as Name calls).
_BLOCKING_NAMES = frozenset({"open", "input"})


def _async_body_calls(fn: ast.AsyncFunctionDef):
    """Call nodes in ``fn``'s own async frame (nested defs excluded),
    statement by statement."""
    stack: list = list(reversed(fn.body))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef,
                             ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def check_rep201(mod: ModuleInfo, config: LintConfig) -> Iterator[Finding]:
    """REP201: blocking call inside ``async def``."""
    for fn in mod.nodes:
        if not isinstance(fn, ast.AsyncFunctionDef):
            continue
        for call in _async_body_calls(fn):
            name = dotted_name(call.func)
            hit = None
            if name in _BLOCKING_CALLS:
                hit = name
            elif isinstance(call.func, ast.Name) \
                    and call.func.id in _BLOCKING_NAMES:
                hit = call.func.id
            elif name is not None and name.startswith("subprocess."):
                hit = name
            if hit is not None:
                alt = "await asyncio.sleep(...)" if "sleep" in hit \
                    else "loop.run_in_executor(...)"
                yield mod.finding(
                    "REP201", call,
                    f"{hit}() blocks the event loop inside async "
                    f"'{fn.name}', starving every other tenant on the "
                    f"daemon; use {alt}",
                )


def check_rep202(mod: ModuleInfo, config: LintConfig) -> Iterator[Finding]:
    """REP202: coroutine called but never awaited."""
    async_names = {node.name for node in mod.nodes
                   if isinstance(node, ast.AsyncFunctionDef)}
    for node, call in call_statements(mod.nodes) if async_names else ():
        name = None
        if isinstance(call.func, ast.Name) \
                and call.func.id in async_names:
            name = call.func.id
        elif isinstance(call.func, ast.Attribute) \
                and call.func.attr in async_names \
                and isinstance(call.func.value, ast.Name) \
                and call.func.value.id in ("self", "cls"):
            name = call.func.attr
        if name is not None:
            yield mod.finding(
                "REP202", node,
                f"coroutine '{name}(...)' is never awaited: the call "
                f"builds a coroutine object and drops it, so the body "
                f"never runs; await it or wrap it in "
                f"asyncio.create_task(...) and keep the handle",
            )


def check_rep203(mod: ModuleInfo, config: LintConfig) -> Iterator[Finding]:
    """REP203: ``create_task`` / ``ensure_future`` handle dropped."""
    for node, call in call_statements(mod.nodes):
        tail = call_tail(call)
        if tail in ("create_task", "ensure_future"):
            yield mod.finding(
                "REP203", node,
                f"{tail}(...) result discarded: asyncio keeps only a "
                f"weak reference, so the task can be garbage-collected "
                f"mid-flight; store the handle (and await or cancel it "
                f"on shutdown)",
            )
