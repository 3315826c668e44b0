"""REP1xx -- fork & lock safety rules.

Every substrate forks workers (``mp.get_context("fork")`` in the
runtime, the decentral executor and the service pool).  A fork
snapshots the parent's locks and threads: a thread started before the
fork exists only in the parent, but a lock it holds is copied *held*
into the child -- the classic post-fork deadlock.  Likewise, a bare
``.acquire()`` that an exception can skip past leaks the lock into
every subsequent chunk, and worker code mutating module globals only
ever mutates its own copy (silently diverging from the parent's
bookkeeping the digests are built from).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from ._util import call_statements, call_tail, dotted_name, parent_map
from .engine import LintConfig, ModuleInfo
from .findings import Finding

__all__ = ["check_rep101", "check_rep102", "check_rep103"]

#: Function names treated as worker-process entry points.
_WORKER_NAME = re.compile(r"(^|_)worker(_|$)|_main$")

#: Mutating method names on module-level containers.
_MUTATORS = frozenset({
    "append", "appendleft", "extend", "insert", "add", "update",
    "setdefault", "pop", "popleft", "popitem", "remove", "discard",
    "clear",
})

#: Event-loop factories that pin asyncio state into the parent.
_LOOP_FACTORIES = frozenset({
    "asyncio.new_event_loop", "asyncio.get_event_loop", "asyncio.run",
})


def _acquire_base(node: ast.Call) -> Optional[str]:
    name = dotted_name(node.func)
    if name is None or not name.endswith(".acquire"):
        return None
    return name[: -len(".acquire")]


def _releases(stmts, base: str) -> bool:
    return any(isinstance(node, ast.Call)
               and dotted_name(node.func) == f"{base}.release"
               for stmt in stmts for node in ast.walk(stmt))


def check_rep101(mod: ModuleInfo, config: LintConfig) -> Iterator[Finding]:
    """REP101: ``lock.acquire()`` outside ``with`` / try-finally."""
    parents = parent_map(mod.tree)
    for node, call in call_statements(mod.nodes):
        base = _acquire_base(call)
        if base is None:
            continue
        # Covered when the acquire sits inside a try whose finally
        # releases the same lock, or is immediately followed by one.
        tries = []  # the enclosing statements, then the next one
        current = parents.get(id(node))
        while current is not None:
            tries.append(current)
            current = parents.get(id(current))
        body = getattr(tries[0], "body", None) if tries else None
        if isinstance(body, list) and node in body:
            tries += body[body.index(node) + 1:][:1]
        covered = any(isinstance(stmt, ast.Try)
                      and _releases(stmt.finalbody, base) for stmt in tries)
        if not covered:
            yield mod.finding(
                "REP101", node,
                f"{base}.acquire() without a guaranteed release: an "
                f"exception leaks the lock into every later chunk "
                f"(and through fork into workers); use 'with {base}:' "
                f"or a try/finally release",
            )


def _creations(scope_body) -> list:
    """(line, kind, node) creation events in one scope, in source
    order, not descending into nested function/class statements."""
    out = []
    for stmt in scope_body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func) or ""
            tail = name.rsplit(".", 1)[-1]
            kind = "thread" if tail == "Thread" \
                else "loop" if name in _LOOP_FACTORIES \
                else "process" if tail == "Process" else None
            if kind is not None:
                out.append((node.lineno, kind, node))
    out.sort(key=lambda item: item[0])
    return out


def check_rep102(mod: ModuleInfo, config: LintConfig) -> Iterator[Finding]:
    """REP102: thread or event loop created before a fork."""
    if not mod.fork_sensitive:
        return
    scopes = [("module", mod.tree.body)]
    for node in mod.nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes.append((node.name, node.body))
    for scope_name, body in scopes:
        events = _creations(body)
        process_lines = [ln for ln, kind, _ in events
                         if kind == "process"]
        if scope_name == "module":
            for line, kind, node in events:
                if kind in ("thread", "loop"):
                    yield mod.finding(
                        "REP102", node,
                        f"{kind} created at import time in a module "
                        f"that forks worker processes; fork-context "
                        f"children inherit its locks mid-state -- "
                        f"create it after the workers are spawned",
                    )
            continue
        if not process_lines:
            continue
        last_fork = max(process_lines)
        for line, kind, node in events:
            if kind in ("thread", "loop") and line < last_fork:
                yield mod.finding(
                    "REP102", node,
                    f"{kind} created before a Process(...) in "
                    f"'{scope_name}': fork-context children snapshot "
                    f"the parent's threads/locks and can deadlock; "
                    f"spawn processes first, then start threads",
                )


def _module_mutables(tree: ast.Module) -> set:
    names = set()
    for stmt in tree.body:
        targets = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
            value = stmt.value
        else:
            continue
        mutable = isinstance(value, (ast.Dict, ast.List, ast.Set)) or (
            isinstance(value, ast.Call)
            and call_tail(value) in ("dict", "list", "set",
                                     "deque", "defaultdict",
                                     "OrderedDict", "Counter")
        )
        if not mutable:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _local_bindings(fn) -> set:
    args = fn.args
    bound = {a.arg for a in [*args.posonlyargs, *args.args,
                             *args.kwonlyargs, args.vararg, args.kwarg]
             if a is not None}
    def bind_target(target) -> None:
        # Only plain names (and destructuring of them) bind locals;
        # ``x[k] = v`` / ``x.attr = v`` *mutate* x, they do not shadow
        # a module-level x.
        if isinstance(target, ast.Name):
            bound.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                bind_target(elt)
        elif isinstance(target, ast.Starred):
            bind_target(target.value)

    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                bind_target(target)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(node.target, ast.Name):
                bound.add(node.target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for sub in ast.walk(node.target):
                if isinstance(sub, ast.Name):
                    bound.add(sub.id)
    return bound


def check_rep103(mod: ModuleInfo, config: LintConfig) -> Iterator[Finding]:
    """REP103: worker-entry code mutating module-level mutable state."""
    mutables = _module_mutables(mod.tree)
    for fn in mod.nodes:
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not _WORKER_NAME.search(fn.name):
            continue
        locals_ = _local_bindings(fn)
        globals_declared = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                globals_declared.update(node.names)
                yield mod.finding(
                    "REP103", node,
                    f"'global {', '.join(node.names)}' in worker entry "
                    f"'{fn.name}': after fork this rebinds only the "
                    f"child's copy, silently diverging from the "
                    f"parent; pass state through the pipe instead",
                )
        interesting = (mutables - locals_) | globals_declared
        if not interesting:
            continue
        for node in ast.walk(fn):
            target_name = None
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _MUTATORS \
                    and isinstance(node.func.value, ast.Name):
                target_name = node.func.value.id
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets \
                    if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    if isinstance(t, ast.Subscript) \
                            and isinstance(t.value, ast.Name):
                        target_name = t.value.id
            if target_name in interesting:
                yield mod.finding(
                    "REP103", node,
                    f"worker entry '{fn.name}' mutates module-level "
                    f"'{target_name}': each forked child mutates its "
                    f"own copy, so the parent (and the ledger/digest "
                    f"bookkeeping) never sees it",
                )
