"""REP4xx -- repo rules: what is written once in the ``repro`` package.

The paper's numbers assume each scheme's chunk rule (Sec. 2.2) and the
master's request protocol (Sec. 5.2) exist once; so do the chassis, the
run spine and the environment settings.  Each rule pins one invariant
to its one site over the engine's single parse (the package and its
consumers) and, as text, the root's docs and CI workflow.  Only modules
below a ``repro`` directory are judged; a required site is missed only
when its module is analyzed; REP409/REP410 need ``repro/__init__.py``.
"""

from __future__ import annotations

import ast
import glob
import os
import re
from typing import Iterator

from ._util import call_tail, name_of
from .engine import _DIGEST_DEFS, CONSUMER_DIRS, LintConfig
from .findings import Finding

__all__ = [
    "INVARIANTS", "check_rep401", "check_rep402", "check_rep403",
    "check_rep404", "check_rep405", "check_rep406", "check_rep407",
    "check_rep408", "check_rep409", "check_rep410",
]

#: ``{rule id: invariant (the PR that made it)}``: every message ends so.
INVARIANTS = {
    "REP401": "a generic driver imports no scheme's formula (PR 13)",
    "REP402": "every substrate asks through Scheduler.stepper (PR 27, 51)",
    "REP403": "a DES engine says where work comes from, no more (PR 16)",
    "REP404": "a real substrate says what a worker runs, no more (PR 17)",
    "REP405": "a finished simulated run is defined once (PR 24)",
    "REP406": "every master serves through core/master.py (PR 41)",
    "REP407": "the environment names two settings (PR 40, 51)",
    "REP408": "a documented bench command names a file (PR 30)",
    "REP409": "every module has a who-needs-it row (PR 18)",
    "REP410": "the who-needs-it rows are true (PR 37)",
}


def _consumers(modules, config: LintConfig, tops=CONSUMER_DIRS) -> list:
    """The modules under ``<root>/<top>`` for each of ``tops``."""
    if config.root is None:
        return []
    root = os.path.abspath(config.root)
    dirs = tuple(os.path.join(root, top) + os.sep for top in tops)
    return [m for m in modules if os.path.abspath(m.path).startswith(dirs)]


def _package(modules, config: LintConfig) -> dict:
    """``{path below the repro package ("core/base.py"): module}``."""
    outside = {id(m) for m in _consumers(modules, config)}
    out = {}
    for mod in modules:
        parts = mod.path.replace(os.sep, "/").split("/")
        tops = [i for i, part in enumerate(parts[:-1]) if part == "repro"]
        if tops and id(mod) not in outside:
            out["/".join(parts[tops[-1] + 1:])] = mod
    return out


def _read(config: LintConfig, rel: str) -> str:
    """``<root>/<rel>``'s text, ``""`` when it cannot be read."""
    try:
        with open(os.path.join(config.root or "", rel), "rb") as handle:
            return handle.read().decode("utf-8")
    except (OSError, UnicodeDecodeError):
        return ""


def _flag(rule: str, mod, node, what: str) -> Finding:
    """``mod``: a module (``node`` a node or line) or a file's path."""
    message = f"{what}: {INVARIANTS[rule]}"
    if isinstance(mod, str):
        return Finding(rule, os.path.normpath(mod), node, message)
    return mod.finding(rule, node, message)


def _once(rule, pkg, what, found, expected) -> Iterator[Finding]:
    """``found`` ``[(site, module, node)]`` against the ``expected``
    sites of ``what`` (a list: a site expected once and found twice is
    flagged); a site is a path below the package or ``path:function``."""
    left = list(expected)
    for site, mod, node in found:
        if site in left:
            left.remove(site)
        else:
            yield _flag(rule, mod, node, f"{what} at {site}, not only at "
                        f"{', '.join(expected) or 'no site'}")
    for site in left:
        if site.split(":")[0] in pkg:
            yield _flag(rule, pkg[site.split(":")[0]], 0,
                        f"{what} missing from {site}")


def _named(pkg, wanted, kind=ast.FunctionDef) -> dict:
    """``{name: [(path, module, node)]}`` for the ``kind`` nodes whose
    name (a call's: its callee tail) passes ``wanted``."""
    found: dict = {}
    for rel, mod in pkg.items():
        for node in mod.nodes:
            if isinstance(node, kind):
                name = call_tail(node) if kind is ast.Call else node.name
                if wanted(name):
                    found.setdefault(name, []).append((rel, mod, node))
    return found


def _per_module(found) -> list:
    """``found`` with one entry per site (set semantics)."""
    return list({site: (site, mod, node)
                 for site, mod, node in reversed(found)}.values())


def check_rep401(modules, config: LintConfig) -> Iterator[Finding]:
    """Each scheme's arithmetic lives once, in its own ``core`` file:
    the generic drivers (the lockstep calculator ``core/kernel.py``, the
    fast-path stepper ``simulation/fastpath.py``) import no
    scheme-formula module, so a formula cannot be re-transliterated
    there unnoticed."""
    formula_modules = {"chunk", "guided", "trapezoid", "factoring",
                       "fixed_increase", "tfss", "static_", "distributed"}
    pkg = _package(modules, config)
    for rel in ("core/kernel.py", "simulation/fastpath.py"):
        mod = pkg.get(rel)
        for node in mod.nodes if mod else ():
            names: set = set()
            if isinstance(node, ast.ImportFrom):
                names.update((node.module or "").split("."))
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    names.update(alias.name.split("."))
            if names & formula_modules:
                yield _flag("REP401", mod, node, f"{rel} imports "
                            f"{sorted(names & formula_modules)}")


def check_rep402(modules, config: LintConfig) -> Iterator[Finding]:
    """There is one way to ask: every substrate asks a scheduler through
    ``Scheduler.stepper``.  So a ``WorkerView`` is built in
    ``core/base.py`` only (``next_chunk``'s caller-facing object, and
    ``drain``); outside ``core/`` only the fast path's inlined formula
    arm (``run_fast_master``) reads ``_nominal``; and neither the
    package nor ``examples/`` defines a second driver's hook: a scheme
    states ``_nominal`` or overrides ``stepper``."""
    second_driver = {"_take", "_chunk_size", "_current_stage",
                     "_lean_stepper", "calls_own_hooks", "SteppedScheduler"}
    pkg = _package(modules, config)
    for mod in [*pkg.values(), *_consumers(modules, config, ("examples",))
                ] if pkg else ():
        for node in mod.nodes:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and node.name in second_driver:
                yield _flag("REP402", mod, node,
                            f"{node.name} is a second driver's hook")
    views = _named(pkg, "WorkerView".__eq__, ast.Call).get("WorkerView", [])
    yield from _once("REP402", pkg, "a WorkerView built",
                     _per_module(views), ["core/base.py"])
    nominal = []
    for rel, mod in pkg.items():
        funcs = [f for f in mod.nodes if isinstance(f, ast.FunctionDef)]
        for node in mod.nodes if not rel.startswith("core/") else ():
            if isinstance(node, ast.Attribute) and node.attr == "_nominal":
                around = [f.name for f in funcs
                          if f.lineno <= node.lineno <= f.end_lineno]
                nominal.append((f"{rel}:{(around or ['-'])[-1]}", mod, node))
    yield from _once("REP402", pkg, "_nominal read outside core/", nominal,
                     ["simulation/fastpath.py:run_fast_master"])


def check_rep403(modules, config: LintConfig) -> Iterator[Finding]:
    """The DES lifecycle lives once, on the chassis: message faults,
    fault scheduling, segment contention and the stall handler are each
    defined once, in ``simulation/des.py`` (no other ``*_stall``); the
    liveness guard is the queue's run loop, so no engine reads a
    worker's ``epoch``; and no engine books a chunk itself (the compute
    step, ``integrate_compute`` + ``ChunkRecord``, lives once).  The
    engines are whatever subclasses ``DesCluster``, so a renamed one
    cannot make the check less."""
    chassis = {"_pop_message_fault", "_schedule_faults", "_acquire_segment",
               "_stall"}
    pkg = _package(modules, config)
    defs = _named(pkg, lambda n: n in chassis or n.endswith("_stall"))
    for name in sorted(chassis | set(defs)):
        yield from _once("REP403", pkg, f"def {name}", defs.get(name, []),
                         ["simulation/des.py"] if name in chassis else [])
    engines = _per_module(
        [(rel, mod, node) for rel, mod in pkg.items() for node in mod.nodes
         if isinstance(node, ast.ClassDef) and any(
             getattr(getattr(base, "value", base), "id", None)
             == "DesCluster" for base in node.bases)])
    yield from _once("REP403", pkg, "a DesCluster engine", engines, [
        "decentral/sim_engine.py", "simulation/engine.py",
        "simulation/tree_engine.py"])
    for _rel, mod, _cls in engines:
        for node in mod.nodes:
            if isinstance(node, ast.Call) and call_tail(node) in (
                    "ChunkRecord", "integrate_compute"):
                yield _flag("REP403", mod, node,
                            f"an engine calls {call_tail(node)}")
            elif isinstance(node, ast.Attribute) and node.attr == "epoch":
                yield _flag("REP403", mod, node, "an engine reads .epoch")


def check_rep404(modules, config: LintConfig) -> Iterator[Finding]:
    """The real-process lifecycle lives once: spawn, SIGKILL,
    join-or-terminate, fault script, heartbeat sender and worker compute
    step are written in ``runtime/chassis.py``, so a real substrate says
    what a worker runs and what a stall means, nothing else.
    ``service/pool.py``, a different supervisor, keeps its slot spawn
    and liveness kill but shares the sender thread and the join guard.
    The run's own wait loop fires the fault script (PR 42), so the three
    chassis classes create no thread, lock or event.  Modules directly
    in ``lint/`` or ``workloads/`` are not judged."""
    chassis, pool = "runtime/chassis.py", "service/pool.py"
    # call (by its callee tail) -> the modules allowed to make it
    allowed = {"Process": {chassis, pool}, "kill": {chassis, pool},
               "terminate": {chassis}, "Thread": {chassis, pool},
               "burn": {chassis}}
    once = {"spawn", "_build_script", "_kill", "_restart", "_spike",
            "join_or_terminate", "heartbeat_sender", "locked_sender",
            "assemble_results", "serve_delays"}
    homes = {"ProcessChassis": chassis, "PipeChassis": "runtime/executor.py",
             "CounterChassis": "decentral/executor.py"}
    pkg = {rel: mod for rel, mod in _package(modules, config).items()
           if rel.split("/")[-2:-1] not in (["lint"], ["workloads"])}
    for called, sites in _named(pkg, allowed.__contains__, ast.Call).items():
        for rel, mod, node in sites:
            if rel not in allowed[called]:
                yield _flag("REP404", mod, node, f"{called}() outside "
                            f"{sorted(allowed[called])}")
    defs = _named(pkg, once.__contains__)
    for name in sorted(once):
        yield from _once("REP404", pkg, f"def {name}", defs.get(name, []),
                         [chassis])
    classes = _named(pkg, homes.__contains__, ast.ClassDef)
    for name, home in homes.items():
        yield from _once("REP404", pkg, f"class {name}",
                         classes.get(name, []), [home])
        for _rel, mod, cls in classes.get(name, []):
            for node in ast.walk(cls):
                if isinstance(node, ast.Call) \
                        and call_tail(node) in ("Thread", "Lock", "Event"):
                    yield _flag("REP404", mod, node,
                                f"{name} creates {call_tail(node)}()")


def check_rep405(modules, config: LintConfig) -> Iterator[Finding]:
    """The run spine is written once: the ``fast`` gate (the
    ``_fast_reason()`` call), the availability screen (the
    ``StarvationError(...)`` construction), the leak check (its error
    text) and the result assembly (``SimResult(...)``) each have one
    site.  A second copy is how the fast path and the DES drifted apart
    before."""
    des = "simulation/des.py"
    spine = {"_fast_reason": des, "StarvationError": "simulation/engine.py",
             "SimResult": des}
    pkg = _package(modules, config)
    calls = _named(pkg, spine.__contains__, ast.Call)
    for name, home in spine.items():
        yield from _once("REP405", pkg, f"{name}(...)",
                         calls.get(name, []), [home])
    leak = "scheduling\x20leak"  # escaped: this module is no second site
    leaks = [(rel, mod, number) for rel, mod in pkg.items()
             for number, line in enumerate(mod.lines, 1)
             for _ in range(line.count(leak))]
    yield from _once("REP405", pkg, f"the {leak!r} check", leaks, [des])


def check_rep406(modules, config: LintConfig) -> Iterator[Finding]:
    """The master protocol is written once, in ``core/master.py``,
    whichever master serves it (the DES, ``master_loop``,
    ``mpi_master``): requeue-before-step (pop the requeue FIFO and ask a
    stepper) and park-or-terminate (ask a stepper, append the dry
    requester to a ``parked`` list) are ``MasterState.request``; the
    parked release (pop a ``parked`` list and the requeue FIFO) is
    ``MasterState.release``.  No other function pops a requeue FIFO, and
    the core imports neither ``time`` nor a transport."""
    # step -> what a function making it calls (``step``: it asks a
    # stepper) -> the one function making it
    steps = {
        "requeue pop": ({"requeue popleft"}, ["request", "release"]),
        "requeue-before-step": ({"requeue popleft", "step"}, ["request"]),
        "parked release": ({"requeue popleft", "parked pop"}, ["release"]),
        "park-or-terminate": ({"step", "parked append"}, ["request"]),
    }
    pkg = _package(modules, config)
    found: dict = {step: [] for step in steps}
    for rel, mod in pkg.items():
        for fn in mod.nodes if "requeue" in mod.source \
                or "parked" in mod.source else ():
            if not isinstance(fn, ast.FunctionDef):
                continue
            calls = {(name_of(getattr(node.func, "value", None)).lstrip("_"),
                      name_of(node.func).lstrip("_"))
                     for node in ast.walk(fn) if isinstance(node, ast.Call)}
            does = {c if c == "step" else f"{on} {c}" for on, c in calls}
            for step, (needs, _sites) in steps.items():
                if needs <= does:
                    found[step].append((f"{rel}:{fn.name}", mod, fn))
    for step, (_needs, sites) in steps.items():
        yield from _once("REP406", pkg, f"the master's {step}", found[step],
                         [f"core/master.py:{fn}" for fn in sites])
    mod = pkg.get("core/master.py")
    for node in mod.nodes if mod else ():
        names = set()
        if isinstance(node, ast.Import):
            names = {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = {(node.module or "").split(".")[0]}
        if names & {"time", "multiprocessing", "socket", "mpi4py"}:
            yield _flag("REP406", mod, node, f"core/master.py imports "
                        f"{sorted(names)}, a clock or a transport")


def check_rep407(modules, config: LintConfig) -> Iterator[Finding]:
    """The package names two ``REPRO_*`` environment variables, in code
    or docstrings, reads the environment only where each is defined,
    and never writes it: every other setting is a parameter or a
    constant, so a run is a function of its arguments.
    ``REPRO_CACHE_DIR`` (``cache.py``) stays as a deployment path the
    benchmark ledger's workloads set, ``REPRO_LOG_LEVEL``
    (``obs/logutil.py``) as a logging setting; the fast path's one
    switch is the ``fast`` run parameter."""
    settings = {"REPRO_CACHE_DIR": "cache.py",
                "REPRO_LOG_LEVEL": "obs/logutil.py"}
    is_environ = lambda node: isinstance(node, ast.Attribute) \
        and node.attr in ("environ", "getenv") \
        and isinstance(node.value, ast.Name) and node.value.id == "os"
    pkg = _package(modules, config)
    named: set = set()
    reads: list = []
    for rel, mod in pkg.items():
        for number, line in enumerate(mod.lines, 1):
            for name in re.findall(r"\bREPRO_[A-Z_]+", line):
                named.add(name)
                if name not in settings:
                    yield _flag("REP407", mod, number,
                                f"{name} is a third setting")
        # ``mod.nodes`` is breadth-first: a write's subscript comes
        # before the ``os.environ`` inside it.
        written: set = set()
        for node in mod.nodes:
            if isinstance(node, ast.Subscript) \
                    and isinstance(node.ctx, ast.Store) \
                    and is_environ(node.value):
                written.add(id(node.value))
                yield _flag("REP407", mod, node,
                            f"{ast.unparse(node)} writes the environment")
            elif is_environ(node) and id(node) not in written:
                reads.append((rel, mod, node))
    yield from _once("REP407", pkg, "an environment read",
                     _per_module(reads), sorted(settings.values()))
    for name, home in settings.items():
        if home in pkg and name not in named:
            yield _flag("REP407", pkg[home], 0, f"{name} is never named")


def check_rep408(modules, config: LintConfig) -> Iterator[Finding]:
    """Every ``pytest``/``python`` command on a ``benchmarks/`` path in
    ``README.md``, ``EXPERIMENTS.md``, ``DESIGN.md``, ``docs/*.md`` and
    the CI workflow names a file that exists: a deleted or renamed bench
    file is flagged, and so is a bare directory (a ``pytest`` run of
    the directory with ``--benchmark-only`` outlived its plugin that
    way).  A Markdown section whose heading names a PR is a dated record
    of what was run then, not an instruction, and is skipped."""
    command = re.compile(r"\b(?:pytest|python3?)\s+(benchmarks/[^\s`'\"]*)")
    root = config.root
    if root is None or not _package(modules, config):
        return
    docs = glob.glob(os.path.join(glob.escape(root), "docs", "*.md"))
    for rel in ["README.md", "EXPERIMENTS.md", "DESIGN.md",
                *sorted(os.path.relpath(path, root) for path in docs),
                ".github/workflows/ci.yml"]:
        # one line per shell command: a continuation joins its line,
        # leaving a NUL per joined line break to keep the numbering
        text = re.sub(r"\\\n\s*", lambda m: " " + "\0" * m[0].count("\n"),
                      _read(config, rel))
        fenced, skip_level, number = False, 0, 1
        for line in text.splitlines():
            at, number = number, number + 1 + line.count("\0")
            line = line.replace("\0", "")
            fenced ^= line.startswith("```")
            heading = re.match(r"(#+) ", line)
            if rel.endswith(".md") and heading and not fenced and (
                    not skip_level or len(heading[1]) <= skip_level):
                skip_level = len(heading[1]) \
                    if re.search(r"\bPR \d+", line) else 0
            for target in () if skip_level else command.findall(line):
                target = target.split("::")[0].rstrip(".,;:)")
                if not os.path.isfile(os.path.join(root, target)):
                    yield _flag("REP408", os.path.join(root, rel), at,
                                f"{target} is not a file")


_ARCH, _MARK = "docs/architecture.md", "**tests only**"


def _whole(modules, config: LintConfig):
    """``({dotted: (module, is_package)}, {dotted: (cell, line)})`` over
    the package and its who-needs-it rows (a row may name several
    modules), when the whole package is analyzed and the table exists."""
    pkg = _package(modules, config)
    text = _read(config, _ARCH)
    if "__init__.py" not in pkg or not text:
        return {}, {}
    dotted = {}
    for rel, mod in pkg.items():
        parts = ["repro", *rel[:-3].split("/")]
        package = parts[-1] == "__init__"
        dotted[".".join(parts[:-1] if package else parts)] = (mod, package)
    rows: dict = {}
    inside = False
    for number, line in enumerate(text.splitlines(), 1):
        if line.startswith("## "):
            inside = line.startswith("## Who needs what")
        elif inside and line.startswith("| `"):
            cells = line.split("|")
            for name in re.findall(r"`([^`]+)`", cells[1]):
                name = "repro" if name == "repro" else f"repro.{name}"
                rows[name] = ("|".join(cells[2:-1]).strip(), number)
    return dotted, rows


def check_rep409(modules, config: LintConfig) -> Iterator[Finding]:
    """Every module of the package is named, dotted and in backticks, in
    the first column of the module table in ``docs/architecture.md`` --
    a module nobody can say the consumer of does not get to stay -- and
    the table names no module that does not exist."""
    dotted, rows = _whole(modules, config)
    for name in sorted(set(dotted) - set(rows)):
        yield _flag("REP409", dotted[name][0], 0,
                    f"{name} has no row in {_ARCH}")
    for name in sorted(set(rows) - set(dotted)):
        yield _flag("REP409", os.path.join(str(config.root), _ARCH),
                    rows[name][1], f"the table names {name}, no module")


def _uses(dotted: dict, consumers: list, pyproject: str):
    """What the code outside ``tests/`` uses: the modules it imports
    (through a re-export ``__init__``, the module a name comes from) and
    ``{name: [(path, line)]}`` of every Name id and Attribute attr."""
    files = [(mod, name, package) for name, (mod, package) in dotted.items()]
    files += [(mod, "", False) for mod in consumers]

    def base_of(node, name, package):
        if not node.level:
            return node.module or ""
        anchor = name.split(".")
        anchor = anchor[:len(anchor) - node.level + bool(package)]
        return ".".join(anchor + ([node.module] if node.module else []))

    reexports = {  # (package, name) -> (module, name)
        (name, alias.asname or alias.name): (base_of(node, name, True),
                                             alias.name)
        for mod, name, package in files if package for node in mod.nodes
        if isinstance(node, ast.ImportFrom) for alias in node.names}
    imported: set = set()

    def credit(module, name=None):
        if name is not None and f"{module}.{name}" in dotted:
            module, name = f"{module}.{name}", None
        if name is not None and (module, name) in reexports:
            credit(*reexports[(module, name)])
        elif module in dotted:
            imported.add(module)

    refs: dict = {}
    for mod, name, package in files:
        if package:
            continue  # a re-export surface consumes nothing
        found: list = []
        bound: dict = {}  # local name -> the module it names
        renamed: dict = {}  # local alias -> the imported name
        for node in mod.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    credit(alias.name)
                    if alias.asname:
                        bound[alias.asname] = alias.name
            elif isinstance(node, ast.ImportFrom):
                base = base_of(node, name, package)
                for alias in node.names:
                    credit(base, alias.name)
                    if alias.asname:  # ``alias`` is a use of ``name``
                        renamed[alias.asname] = alias.name
                    if f"{base}.{alias.name}" in dotted:
                        bound[alias.asname or alias.name] = (
                            f"{base}.{alias.name}")
            elif isinstance(node, (ast.Name, ast.Attribute)):
                found.append((name_of(node), node.lineno))
        found += [(renamed[ref], line) for ref, line in found
                  if ref in renamed]
        for ref, line in found:
            refs.setdefault(ref, []).append((mod.path, line))
        for node in mod.nodes:
            # ``pkg.name`` through a module bound by an import
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in bound:
                credit(bound[node.value.id], node.attr)
    scripts = pyproject.partition("[project.scripts]")[2].split("\n[")[0]
    for module, name in re.findall(r'"([\w.]+):(\w+)"', scripts):
        credit(module)
        refs.setdefault(name, []).append(("pyproject.toml", 0))
    return imported, refs


def check_rep410(modules, config: LintConfig) -> Iterator[Finding]:
    """The table's **tests only** marks are machine-checked both ways:
    a module (re-export ``__init__``s aside) that no consumer outside
    ``tests/`` imports has a row so marked that says why, and no row so
    marked names a consumed module.  Every public top-level
    ``def``/``class`` is referenced by name outside ``tests/`` (its own
    module counts, its own body does not), unless its row is marked or
    the lint engine treats it as digest-critical (a reference
    implementation the tests compare against)."""
    dotted, rows = _whole(modules, config)
    if not dotted:
        return
    imported, refs = _uses(dotted, _consumers(modules, config),
                           _read(config, "pyproject.toml"))
    marked = {name for name, (cell, _line) in rows.items() if _MARK in cell}
    for name, (mod, package) in sorted(dotted.items()):
        if not package and name not in imported | marked:
            yield _flag("REP410", mod, 0, f"{name} has no consumer outside "
                        f"tests/ and no {_MARK} row")
        for node in () if name in marked else mod.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef,
                                 ast.AsyncFunctionDef)) \
                    and not node.name.startswith(("_", "audit_")) \
                    and node.name not in _DIGEST_DEFS \
                    and all(path == mod.path
                            and node.lineno <= line <= node.end_lineno
                            for path, line in refs.get(node.name, ())):
                yield _flag("REP410", mod, node, f"{name}.{node.name} is "
                            f"referenced only by tests")
    arch = os.path.join(str(config.root), _ARCH)
    for name in sorted(marked):
        cell, line = rows[name]
        if not cell.replace(_MARK, "").strip(" .,;:"):
            yield _flag("REP410", arch, line, f"{name}'s row gives no reason")
        if name in imported:
            yield _flag("REP410", arch, line, f"{name} is consumed but "
                        f"marked {_MARK}")
