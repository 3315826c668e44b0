"""REP4xx repo rules: one mutant per rule, a small tree (``src/repro``
plus the root files its rule reads) that must yield exactly its rule id
with a message naming what it broke.  The repo itself, linted by
``test_lint_clean.py``, is every rule's clean side.
"""

from __future__ import annotations

import pytest

from .conftest import lint_tree, rules_of

TABLE = "## Who needs what\n\n| `repro` | the package |\n"
ANY = {"src/repro/batch.py": "X = 1\n"}

MUTANTS = [
    pytest.param({"src/repro/core/kernel.py": "from . import guided\n"},
                 "REP401", "['guided']", id="REP401-formula-import"),
    pytest.param({**ANY, "examples/qss.py": (
        "class QSS:\n    def _chunk_size(self, view):\n        return 1\n")},
        "REP402", "_chunk_size", id="REP402-hook-in-examples"),
    pytest.param({"src/repro/simulation/tree_engine.py": (
        "class TreeSimulation(DesCluster[TreeWorker]):\n"
        "    def alive(self, state):\n        return state.epoch\n")},
        "REP403", ".epoch", id="REP403-engine-reads-epoch"),
    # PR 42: the counter-hold event the script thread needed
    pytest.param({"src/repro/decentral/executor.py": (
        "import threading\n\nclass CounterChassis(ProcessChassis):\n"
        "    def start(self):\n        self._held = threading.Event()\n")},
        "REP404", "creates Event()", id="REP404-event-in-chassis"),
    pytest.param({"src/repro/batch.py": (
        "def rebuild(rows):\n    return SimResult(rows)\n")},
        "REP405", "SimResult", id="REP405-second-result"),
    # PR 41's parent: the runtime master's own requeue-then-step
    pytest.param({"src/repro/runtime/master.py": (
        "def _next_assignment(self, wid):\n    if self._requeue:\n"
        "        return self._requeue.popleft()\n"
        "    return self._step(wid)\n")},
        "REP406", "runtime/master.py:_next_assignment",
        id="REP406-second-requeue-pop"),
    pytest.param({"src/repro/core/master.py": "import time\n"},
                 "REP406", "['time']", id="REP406-clock-in-core"),
    # PR 51 deleted this write (the --no-fast switch)
    pytest.param({"src/repro/experiments/runner.py": (
        'import os\n\nos.environ["REPRO_FAST"] = "0"\n')},
        "REP407", "REPRO_FAST", id="REP407-environment-write"),
    # PR 30: the command outlived its plugin
    pytest.param({**ANY, "docs/bench.md": "Run\n\n    pytest benchmarks/\n"},
                 "REP408", "benchmarks/ is not", id="REP408-bare-directory"),
    pytest.param({**ANY, "docs/bench.md": (
        "## PR 12 measurements\n\n    pytest benchmarks/\n")},
        None, None, id="REP408-dated-record-stays-clean"),
    pytest.param({"src/repro/__init__.py": "", "src/repro/extra.py": "",
                  "docs/architecture.md": TABLE,
                  "examples/use.py": "import repro.extra\n"},
                 "REP409", "repro.extra has no", id="REP409-module-no-row"),
    pytest.param({"src/repro/__init__.py": "",
                  "src/repro/extra.py": "def helper():\n    return 1\n",
                  "docs/architecture.md": TABLE + "| `extra` | examples |\n",
                  "examples/use.py": "import repro.extra\n",
                  "tests/test_extra.py": "from repro.extra import helper\n"},
                 "REP410", "repro.extra.helper", id="REP410-tests-only-def"),
]


@pytest.mark.parametrize("files, rule, needle", MUTANTS)
def test_mutant_yields_exactly_its_rule(tmp_path, files, rule, needle):
    findings = lint_tree(tmp_path, files, under="src", root=str(tmp_path))
    assert rules_of(findings) == ({rule} if rule else set()), [
        f.render() for f in findings]
    assert not rule or any(needle in f.message for f in findings)


def test_a_tree_without_the_package_is_silent(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/pkg/kernel.py": "from . import guided\n",
        "src/pkg/runner.py": 'import os\nos.environ["REPRO_FAST"] = "0"\n',
        "docs/bench.md": "    pytest benchmarks/\n",
    }, under="src", root=str(tmp_path))
    assert findings == [], [f.render() for f in findings]
