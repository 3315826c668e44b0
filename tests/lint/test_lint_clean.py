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
    engines = {
        os.path.join("repro", "simulation", "engine.py"),
        os.path.join("repro", "simulation", "tree_engine.py"),
        os.path.join("repro", "simulation", "affinity_engine.py"),
        os.path.join("repro", "decentral", "sim_engine.py"),
    }
    defined: dict = {}
    for root, _dirs, files in os.walk(os.path.join(_SRC, "repro")):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            rel = os.path.relpath(path, _SRC)
            with open(path, "r", encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
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


def test_every_module_has_a_who_needs_it_row():
    """Every ``src/repro/**/*.py`` is named, dotted and in backticks,
    in the first column of the module table in
    ``docs/architecture.md`` -- a module nobody can say the consumer
    of does not get to stay -- and the table names no module that
    does not exist."""
    import re

    modules = set()
    root = os.path.join(_SRC, "repro")
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            if not name.endswith(".py"):
                continue
            rel = os.path.relpath(os.path.join(dirpath, name), root)
            parts = rel[:-3].split(os.sep)
            if parts[-1] == "__init__":
                parts.pop()
            modules.add(".".join(parts) or "repro")
    doc = os.path.join(_REPO, "docs", "architecture.md")
    with open(doc, "r", encoding="utf-8") as handle:
        text = handle.read()
    table = text[text.index("## Who needs what"):]
    table = table[:table.index("\n## ", 1)]
    named = set()
    for line in table.splitlines():
        if line.startswith("| `"):
            named.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    assert modules - named == set(), sorted(modules - named)
    assert named - modules == set(), sorted(named - modules)
