"""The analysis engine: file collection, parsing, module roles.

The engine walks the given paths, parses every ``.py`` file once, and
hands each rule a :class:`ModuleInfo` -- the parsed tree plus the
*role* classification and the project-level string literals the
cross-file rules compare (event kinds, scheme registries, wire ops).

Roles are discovered from **content, not path**, so the same rules
work on this repo, on a temp fixture tree in the tests, and on any
downstream layout:

* *digest-critical*: the module defines ``canonical_stream`` /
  ``stream_digest`` or an ``audit_*`` function -- code whose iteration
  order and hashing feed the byte-diffable canonical stream.
* *fork-sensitive*: the module creates ``multiprocessing`` processes
  (fork-context workers inherit the parent's threads and locks).
* schema carriers: modules assigning ``EVENT_KINDS`` / ``SCHEMES`` /
  ``OPS`` literals are the authorities the REP3xx rules check
  emissions against.
"""

from __future__ import annotations

import ast
import dataclasses
import os
from typing import Iterable, Optional, Sequence, Union

from .findings import PARSE_RULE, Finding

__all__ = ["LintConfig", "ModuleInfo", "run_lint", "dotted_name"]

PathLike = Union[str, os.PathLike]

#: Function names that mark a module digest-critical.
_DIGEST_DEFS = ("canonical_stream", "stream_digest", "replay_cut_points")

#: Module-level literal assignments the REP3xx rules consume.  The
#: registry proper (``SCHEMES``) must be a *dict* display --
#: experiment modules reuse the name for plain column tuples, which
#: are not the authority.
_PROTOCOL_NAMES = frozenset({"EVENT_KINDS", "SCHEMES", "OPS"})
_DICT_ONLY_NAMES = frozenset({"SCHEMES"})


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _str_elements(node: ast.AST) -> Optional[list[tuple[str, int]]]:
    """String constants (with lines) inside a set/tuple/list display,
    a ``frozenset({...})`` / ``set([...])`` / ``tuple(...)`` call, or a
    dict display's keys.  ``None`` when the node is none of those."""
    if isinstance(node, ast.Call) and len(node.args) == 1 \
            and dotted_name(node.func) in ("frozenset", "set", "tuple"):
        node = node.args[0]
    elems: Iterable[Optional[ast.expr]]
    if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
        elems = node.elts
    elif isinstance(node, ast.Dict):
        elems = node.keys
    else:
        return None
    out: list[tuple[str, int]] = []
    for el in elems:
        if isinstance(el, ast.Constant) and isinstance(el.value, str):
            out.append((el.value, el.lineno))
    return out


@dataclasses.dataclass
class ModuleInfo(object):
    """One parsed file plus everything the rules ask about it."""

    path: str                 #: path as reported in findings
    source: str
    tree: ast.Module
    lines: list[str] = dataclasses.field(default_factory=list)

    # content-discovered roles
    digest_critical: bool = False
    fork_sensitive: bool = False

    #: ``{assigned_name: [(literal, line), ...]}`` for the protocol
    #: carriers in ``_PROTOCOL_NAMES``.
    protocol_sets: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        self.lines = self.source.splitlines()
        self._classify()

    # -- finding helper ----------------------------------------------------

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(self, rule: str, node_or_line, message: str) -> Finding:
        line = getattr(node_or_line, "lineno", node_or_line) or 0
        return Finding(
            rule=rule, path=self.path, line=int(line),
            message=message, snippet=self.snippet(int(line)),
        )

    # -- classification ----------------------------------------------------

    def _classify(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name in _DIGEST_DEFS \
                        or node.name.startswith("audit_"):
                    self.digest_critical = True
            elif isinstance(node, ast.Call):
                callee = dotted_name(node.func) or ""
                tail = callee.rsplit(".", 1)[-1]
                if tail == "Process" or tail == "get_context":
                    self.fork_sensitive = True
        for stmt in self.tree.body:
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                target, value = stmt.target, stmt.value
            if not isinstance(target, ast.Name) or value is None:
                continue
            if target.id in _PROTOCOL_NAMES:
                if target.id in _DICT_ONLY_NAMES \
                        and not isinstance(value, ast.Dict):
                    continue
                elements = _str_elements(value)
                if elements is not None:
                    self.protocol_sets[target.id] = elements


@dataclasses.dataclass(frozen=True)
class LintConfig(object):
    """Engine configuration (CLI flags map 1:1 onto these fields)."""

    #: Rule-id prefixes to run (``("REP",)`` = everything).
    select: tuple = ("REP",)
    #: Rule-id prefixes to skip (applied after ``select``).
    ignore: tuple = ()
    #: Test tree for the REP304 test-reference check; ``None`` skips it.
    tests_dir: Optional[str] = None

    def wants(self, rule_id: str) -> bool:
        return any(rule_id.startswith(p) for p in self.select) \
            and not any(rule_id.startswith(p) for p in self.ignore)


def _collect_files(paths: Sequence[PathLike]) -> list[str]:
    out: list[str] = []
    for path in paths:
        path = os.fspath(path)
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs
                    if not d.startswith(".") and d != "__pycache__"
                )
                for name in sorted(names):
                    if name.endswith(".py"):
                        out.append(os.path.join(root, name))
        elif path.endswith(".py"):
            out.append(path)
    return out


def _display_path(path: str) -> str:
    rel = os.path.relpath(path)
    return path if rel.startswith("..") else rel


def parse_modules(
    paths: Sequence[PathLike],
) -> tuple[list[ModuleInfo], list[Finding]]:
    """Parse every file under ``paths``; syntax errors become
    :data:`~repro.lint.findings.PARSE_RULE` findings."""
    modules: list[ModuleInfo] = []
    findings: list[Finding] = []
    for path in _collect_files(paths):
        display = _display_path(path)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            tree = ast.parse(source, filename=path)
        except (SyntaxError, ValueError, UnicodeDecodeError) as exc:
            line = getattr(exc, "lineno", 0) or 0
            findings.append(Finding(
                rule=PARSE_RULE, path=display, line=int(line),
                message=f"file does not parse: {exc}",
            ))
            continue
        modules.append(ModuleInfo(path=display, source=source, tree=tree))
    return modules, findings


def run_lint(
    paths: Sequence[PathLike],
    config: Optional[LintConfig] = None,
) -> list[Finding]:
    """Run every selected rule over ``paths``; sorted findings."""
    from .rules import FILE_RULES, PROJECT_RULES

    config = config or LintConfig()
    modules, findings = parse_modules(paths)
    for rule_id, _summary, check in FILE_RULES:
        if not config.wants(rule_id):
            continue
        for mod in modules:
            findings.extend(check(mod, config))
    for rule_id, _summary, check in PROJECT_RULES:
        if config.wants(rule_id):
            findings.extend(check(modules, config))
    findings = [f for f in findings if config.wants(f.rule)
                or f.rule == PARSE_RULE]
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings
