"""Tier-1 gate: the repo's own source must lint clean.

This is the test that makes every other rule test matter: the rules
are not aspirational, the codebase actually satisfies them, and any
PR that introduces a violation fails here.
"""

from __future__ import annotations

import os

from repro.lint import LintConfig, run_lint

_REPO = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
_SRC = os.path.join(_REPO, "src")
_TESTS = os.path.join(_REPO, "tests")


def test_repo_source_is_lint_clean():
    findings = run_lint([_SRC], LintConfig(tests_dir=_TESTS))
    assert findings == [], "\n" + "\n".join(
        f.render() for f in findings
    )


def test_role_discovery_finds_the_real_authorities():
    """Content-based discovery locates this repo's actual schema
    modules -- the cross-file rules are checking something real."""
    from repro.lint.engine import parse_modules

    modules, parse_errors = parse_modules([_SRC])
    assert parse_errors == []
    declared: dict = {}
    for mod in modules:
        for name in mod.protocol_sets:
            declared.setdefault(name, set()).add(
                os.path.basename(mod.path)
            )
    assert "events.py" in declared.get("EVENT_KINDS", set())
    assert "registry.py" in declared.get("SCHEMES", set())
    assert "protocol.py" in declared.get("OPS", set())
    digest_modules = {
        os.path.basename(m.path) for m in modules if m.digest_critical
    }
    assert "export.py" in digest_modules
    fork_modules = {
        os.path.basename(m.path) for m in modules if m.fork_sensitive
    }
    assert fork_modules, "no fork-sensitive module discovered"


def test_drivers_import_no_scheme_formula_module():
    """Each scheme's arithmetic lives once, in its own ``core`` file:
    the generic drivers (lockstep calculator, fast-path stepper) must
    not import a scheme-formula module, so a formula cannot be
    re-transliterated there unnoticed."""
    import ast

    formula_modules = {
        "chunk", "guided", "trapezoid", "factoring", "fixed_increase",
        "tfss", "static_", "distributed",
    }
    for rel in ("repro/core/kernel.py", "repro/simulation/fastpath.py"):
        path = os.path.join(_SRC, rel)
        with open(path, "r", encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.update((node.module or "").split("."))
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    imported.update(alias.name.split("."))
        assert not imported & formula_modules, (
            rel, sorted(imported & formula_modules)
        )


def test_there_is_one_way_to_ask():
    """Every substrate asks a scheduler through ``Scheduler.stepper``,
    so under ``src/repro``: a ``WorkerView`` is built in ``core/base.py``
    only (the stepper's adapter over ``next_chunk``, and ``drain``);
    the hook rule (``calls_own_hooks``) is applied inside
    ``Scheduler.stepper`` only; no module outside ``core/`` reads a
    scheduler's ``_take`` or ``_chunk_size``; and outside ``core/`` only
    the fast path's inlined formula arm reads ``_nominal``."""
    import ast

    built, ruled, hooks, nominal = set(), [], [], []
    root = os.path.join(_SRC, "repro")
    for dirpath, _dirs, files in os.walk(root):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            core = rel.startswith("core" + os.sep)
            with open(path, "r", encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            funcs = [f for f in ast.walk(tree)
                     if isinstance(f, ast.FunctionDef)]

            def around(node):
                # The innermost function around ``node``.
                names = [f.name for f in funcs
                         if f.lineno <= node.lineno <= f.end_lineno]
                return names[-1] if names else None

            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    called = getattr(node.func, "id", None) \
                        or getattr(node.func, "attr", None)
                    if called == "WorkerView":
                        built.add(rel)
                    elif called == "calls_own_hooks":
                        ruled.append((rel, around(node)))
                elif isinstance(node, ast.Attribute) and not core:
                    if node.attr in ("_take", "_chunk_size"):
                        hooks.append((rel, node.lineno))
                    elif node.attr == "_nominal":
                        nominal.append((rel, around(node)))
    base = os.path.join("core", "base.py")
    assert built == {base}, built
    assert ruled == [(base, "stepper")], ruled
    assert hooks == [], hooks
    assert nominal == [
        (os.path.join("simulation", "fastpath.py"), "run_fast_master")
    ], nominal


def test_des_lifecycle_lives_once_on_the_chassis():
    """Message faults, fault scheduling, segment contention and the
    stall handler are each defined in exactly one module,
    ``simulation/des.py``; the liveness guard is the queue's run loop
    (``simulation/events.py``), so no engine looks at a worker's
    ``epoch``; and no engine books a chunk itself (the compute step --
    ``integrate_compute`` + ``ChunkRecord`` -- lives once): a
    substrate says where work comes from, nothing else."""
    import ast

    chassis = {
        "_pop_message_fault", "_schedule_faults", "_acquire_segment",
        "_stall",
    }
    trees = {}
    for root, _dirs, files in os.walk(os.path.join(_SRC, "repro")):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            with open(path, "r", encoding="utf-8") as handle:
                trees[os.path.relpath(path, _SRC)] = ast.parse(
                    handle.read(), filename=path)

    def subclasses_chassis(node):
        return isinstance(node, ast.ClassDef) and any(
            getattr(getattr(base, "value", base), "id", None)
            == "DesCluster"
            for base in node.bases
        )

    # The engines are whatever subclasses the chassis, so a renamed or
    # deleted engine cannot leave this test checking less.
    engines = {
        rel for rel, tree in trees.items()
        if any(subclasses_chassis(node) for node in ast.walk(tree))
    }
    assert engines == {
        os.path.join("repro", "simulation", "engine.py"),
        os.path.join("repro", "simulation", "tree_engine.py"),
        os.path.join("repro", "decentral", "sim_engine.py"),
    }, sorted(engines)
    defined: dict = {}
    for rel, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (
                node.name in chassis or node.name.endswith("_stall")
            ):
                defined.setdefault(node.name, []).append(rel)
            elif rel in engines and isinstance(node, ast.Call):
                callee = node.func
                called = getattr(callee, "id", None) \
                    or getattr(callee, "attr", None)
                assert called not in (
                    "ChunkRecord", "integrate_compute",
                ), (rel, node.lineno, called)
            elif rel in engines and isinstance(node, ast.Attribute):
                assert node.attr != "epoch", (rel, node.lineno)
    des = os.path.join("repro", "simulation", "des.py")
    assert defined == {name: [des] for name in chassis}, defined


def test_real_process_lifecycle_lives_once_on_the_chassis():
    """Spawn site, SIGKILL, join-or-terminate, fault script, heartbeat
    sender and worker compute step are each written once, in
    ``runtime/chassis.py``: a real substrate says what a worker runs
    and what a stall means, nothing else.  ``service/pool.py`` keeps
    its own slot spawn and liveness kill (its event-loop readers,
    dispatch and ledger are a different supervisor), but shares the
    sender thread, the locked sender and the join guard."""
    import ast

    chassis = os.path.join("repro", "runtime", "chassis.py")
    pool = os.path.join("repro", "service", "pool.py")
    counter_hold = os.path.join("repro", "decentral", "executor.py")
    #: call (by attribute / name tail) -> modules allowed to make it
    allowed = {
        "Process": {chassis, pool},
        "kill": {chassis, pool},
        "terminate": {chassis},
        "Thread": {chassis, pool, counter_hold},
        "burn": {chassis},
    }
    once = {
        "spawn", "_drive", "_kill", "_restart", "_spike",
        "join_or_terminate", "heartbeat_sender", "locked_sender",
        "assemble_results", "serve_delays",
    }
    calls: dict = {}
    defined: dict = {}
    for root, _dirs, files in os.walk(os.path.join(_SRC, "repro")):
        if os.path.basename(root) in ("lint", "workloads"):
            continue
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            rel = os.path.relpath(path, _SRC)
            with open(path, "r", encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) \
                        and node.name in once:
                    defined.setdefault(node.name, []).append(rel)
                elif isinstance(node, ast.Call):
                    callee = node.func
                    called = getattr(callee, "attr", None) \
                        or getattr(callee, "id", None)
                    if called in allowed:
                        calls.setdefault(called, set()).add(rel)
    for called, where in sorted(calls.items()):
        assert where <= allowed[called], (called, sorted(where))
    assert defined == {name: [chassis] for name in once}, defined


def test_the_run_spine_is_written_once():
    """What defines a finished simulated run has one site under
    ``src/repro``: the ``fast`` gate (the ``fast_enabled()`` call), the
    availability screen (the ``StarvationError(...)`` construction),
    the leak check (its ``"scheduling leak"`` text) and the result
    assembly (the ``SimResult(...)`` construction).  A second copy is
    how the fast path and the DES drifted apart before."""
    import ast

    sites: dict = {"fast_enabled": [], "StarvationError": [],
                   "SimResult": [], "scheduling leak": []}
    for root, _dirs, files in os.walk(os.path.join(_SRC, "repro")):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            rel = os.path.relpath(path, _SRC)
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
            sites["scheduling leak"] += (
                [rel] * text.count("scheduling leak")
            )
            for node in ast.walk(ast.parse(text, filename=path)):
                if isinstance(node, ast.Call):
                    callee = node.func
                    called = getattr(callee, "attr", None) \
                        or getattr(callee, "id", None)
                    if called in sites:
                        sites[called].append(rel)
    des = os.path.join("repro", "simulation", "des.py")
    assert sites == {
        "fast_enabled": [des],
        "StarvationError": [
            os.path.join("repro", "simulation", "engine.py")
        ],
        "SimResult": [des],
        "scheduling leak": [des],
    }, sites


def test_documented_bench_commands_name_files_that_exist():
    """Every ``pytest benchmarks/…`` or ``python benchmarks/…`` command
    in the docs and the CI workflow names a file that exists: a bench
    file deleted or renamed fails here, and so does a bare directory
    (``pytest benchmarks/ --benchmark-only`` outlived its plugin that
    way).  A markdown section whose heading names a PR is a dated
    record of what was run then, not an instruction, and is skipped."""
    import glob
    import re

    paths = [os.path.join(_REPO, name)
             for name in ("README.md", "EXPERIMENTS.md", "DESIGN.md")]
    paths += sorted(glob.glob(os.path.join(_REPO, "docs", "*.md")))
    paths.append(os.path.join(_REPO, ".github", "workflows", "ci.yml"))
    command = re.compile(r"\b(?:pytest|python3?)\s+(benchmarks/[^\s`'\"]*)")
    stale = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            # one line per shell command, continuations joined
            lines = re.sub(r"\\\n\s*", " ", handle.read()).splitlines()
        fenced, skip_level = False, 0
        for line in lines:
            if line.startswith("```"):
                fenced = not fenced
            heading = re.match(r"(#+) ", line)
            if path.endswith(".md") and heading and not fenced:
                level = len(heading.group(1))
                if not skip_level or level <= skip_level:
                    skip_level = level if re.search(r"\bPR \d+", line) \
                        else 0
            if skip_level:
                continue
            for target in command.findall(line):
                target = target.split("::")[0].rstrip(".,;:)")
                if not os.path.isfile(os.path.join(_REPO, target)):
                    stale.append((os.path.relpath(path, _REPO), target))
    assert stale == [], stale


def _who_needs_it_rows():
    """``{repro.module: who-needs-it cell}`` for every module the table
    in ``docs/architecture.md`` names (a row may name several)."""
    import re

    doc = os.path.join(_REPO, "docs", "architecture.md")
    with open(doc, "r", encoding="utf-8") as handle:
        text = handle.read()
    table = text[text.index("## Who needs what"):]
    table = table[:table.index("\n## ", 1)]
    rows = {}
    for line in table.splitlines():
        if line.startswith("| `"):
            cells = line.split("|")
            for module in re.findall(r"`([^`]+)`", cells[1]):
                dotted = "repro" if module == "repro" \
                    else f"repro.{module}"
                rows[dotted] = "|".join(cells[2:-1]).strip()
    return rows


def _consumers():
    """What the code outside ``tests/`` uses of ``src/repro``.

    Consumers are the files under ``src/repro``, ``benchmarks/`` and
    ``examples/`` plus ``pyproject.toml``'s ``[project.scripts]``.
    Returns ``(modules, imported, refs, defs)``: every module's dotted
    name -> ``(path, is_package)``; the
    modules some consumer imports, an import through a re-export
    ``__init__`` crediting the module the name comes from, never the
    ``__init__``; each file's ``(name, line)`` references
    (``ast.Name`` ids and ``ast.Attribute`` attrs -- import lines and
    ``__all__`` strings are neither); and every public top-level
    ``def``/``class`` of ``src/repro`` as ``(module, name, first line,
    last line)``."""
    import ast
    import re

    modules = {}
    root = os.path.join(_SRC, "repro")
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                parts = os.path.relpath(path, _SRC)[:-3].split(os.sep)
                package = parts[-1] == "__init__"
                if package:
                    parts.pop()
                modules[".".join(parts)] = (path, package)
    files = [(path, dotted, package)
             for dotted, (path, package) in modules.items()]
    for top in ("benchmarks", "examples"):
        for dirpath, _dirs, names in os.walk(os.path.join(_REPO, top)):
            files += [(os.path.join(dirpath, name), None, False)
                      for name in sorted(names) if name.endswith(".py")]
    trees = {}
    for path, _dotted, _package in files:
        with open(path, "r", encoding="utf-8") as handle:
            trees[path] = ast.parse(handle.read(), filename=path)

    def base_of(node, dotted, package):
        if not node.level:
            return node.module or ""
        anchor = dotted.split(".")
        anchor = anchor[:len(anchor) - node.level + bool(package)]
        return ".".join(anchor + ([node.module] if node.module else []))

    reexports = {}  # (package, name) -> (module, name)
    for path, dotted, package in files:
        if package:
            for node in ast.walk(trees[path]):
                if isinstance(node, ast.ImportFrom):
                    base = base_of(node, dotted, package)
                    for alias in node.names:
                        reexports[(dotted, alias.asname or alias.name)] = (
                            base, alias.name)

    imported = set()

    def credit(module, name=None):
        if name is not None and f"{module}.{name}" in modules:
            module, name = f"{module}.{name}", None
        if name is not None and (module, name) in reexports:
            credit(*reexports[(module, name)])
        elif module in modules:
            imported.add(module)

    refs = {}
    for path, dotted, package in files:
        found = refs.setdefault(path, [])
        if package:
            continue  # a re-export surface consumes nothing
        bound = {}  # local name -> module it names
        renamed = {}  # local alias -> the imported name
        for node in ast.walk(trees[path]):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    credit(alias.name)
                    if alias.asname:
                        bound[alias.asname] = alias.name
            elif isinstance(node, ast.ImportFrom):
                base = base_of(node, dotted, package)
                for alias in node.names:
                    credit(base, alias.name)
                    if alias.asname:  # ``alias`` is a use of ``name``
                        renamed[alias.asname] = alias.name
                    if f"{base}.{alias.name}" in modules:
                        bound[alias.asname or alias.name] = (
                            f"{base}.{alias.name}")
            elif isinstance(node, ast.Name):
                found.append((node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                found.append((node.attr, node.lineno))
        found += [(renamed[name], line) for name, line in found
                  if name in renamed]
        for node in ast.walk(trees[path]):
            # ``pkg.name`` through a module bound by an import
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in bound:
                credit(bound[node.value.id], node.attr)
    with open(os.path.join(_REPO, "pyproject.toml"), "r",
              encoding="utf-8") as handle:
        text = handle.read()
    scripts = text[text.index("[project.scripts]"):].split("\n[", 1)[0]
    for module, name in re.findall(r'"([\w.]+):(\w+)"', scripts):
        credit(module)
        refs.setdefault("pyproject.toml", []).append((name, 0))
    defs = []
    for dotted, (path, _package) in modules.items():
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) \
                    and not node.name.startswith("_"):
                defs.append((dotted, node.name, node.lineno,
                             node.end_lineno))
    return modules, imported, refs, defs


def test_every_module_has_a_who_needs_it_row():
    """Every ``src/repro/**/*.py`` is named, dotted and in backticks,
    in the first column of the module table in
    ``docs/architecture.md`` -- a module nobody can say the consumer
    of does not get to stay -- and the table names no module that
    does not exist."""
    modules = set(_consumers()[0])
    named = set(_who_needs_it_rows())
    assert modules - named == set(), sorted(modules - named)
    assert named - modules == set(), sorted(named - modules)


def test_who_needs_it_rows_are_true():
    """The table's **tests only** marks are machine-checked, both ways.

    A module (re-export ``__init__``s aside) that no consumer outside
    ``tests/`` imports has a row marked **tests only** that says why,
    and a row so marked names no module that has a consumer.  Every
    public top-level ``def``/``class`` is referenced by name somewhere
    outside ``tests/`` (its own module counts, its own body does not),
    unless its module's row is marked **tests only** or the lint
    engine treats it as digest-critical (a reference implementation
    the tests compare against)."""
    from repro.lint.engine import _DIGEST_DEFS

    modules, imported, refs, defs = _consumers()
    rows = _who_needs_it_rows()
    mark = "**tests only**"

    marked = {dotted for dotted, cell in rows.items() if mark in cell}
    unmarked = sorted(
        dotted for dotted, (_path, package) in modules.items()
        if not package and dotted not in imported | marked
    )
    assert unmarked == [], f"no consumer and no {mark} row: {unmarked}"
    bare = sorted(dotted for dotted in marked
                  if not rows[dotted].replace(mark, "").strip(" .,;:"))
    assert bare == [], f"{mark} without a reason: {bare}"
    consumed = sorted(marked & imported)
    assert consumed == [], f"marked {mark} but consumed: {consumed}"

    where: dict = {}
    for path, found in refs.items():
        for ref, line in found:
            where.setdefault(ref, []).append((path, line))
    unused = []
    for dotted, name, first, last in defs:
        if dotted in marked or name in _DIGEST_DEFS \
                or name.startswith("audit_"):
            continue
        own = modules[dotted][0]
        if all(path == own and first <= line <= last
               for path, line in where.get(name, ())):
            unused.append(f"{dotted}.{name}")
    assert unused == [], f"referenced only by tests: {sorted(unused)}"
