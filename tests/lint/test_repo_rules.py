"""REP4xx repo rules (and REP302, the trace-row width): one mutant per
rule, a small tree (``src/repro`` plus the root files its rule reads)
that must yield exactly its rule id with a message naming what it
broke.  The repo itself, linted by
``test_lint_clean.py``, is every rule's clean side.
"""

from __future__ import annotations

import pytest

from .conftest import lint_tree, rules_of

TABLE = "## Who needs what\n\n| `repro` | the package |\n"
ANY = {"src/repro/batch.py": "X = 1\n"}

MUTANTS = [
    # a row one field short, and a row spliced from a star: the flat
    # trace store would shift every later event's fields
    pytest.param({"src/repro/simulation/rows.py": (
        "class Engine:\n    def chunk(self, t, worker):\n"
        "        self._emit((\"result\", \"sim.master\", t, worker,\n"
        "                    0, 4, None, None, None, \"\"))\n")},
        "REP302", "it has 10 fields", id="REP302-ten-field-row"),
    pytest.param({"src/repro/core/requeue.py": (
        "def lose(record, at, span):\n"
        "    record((\"assign\", \"sim.master\", at, -1, *span,\n"
        "            0, None, None, \"requeue\", None))\n")},
        "REP302", "starred element", id="REP302-starred-record-row"),
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
    # the counter runtime's own torn-tail reader, before the one shard
    pytest.param({"src/repro/decentral/executor.py": (
        "def read_shard(path):\n    return []\n")},
        "REP404", "def read_shard at decentral/executor.py",
        id="REP404-second-shard-reader"),
    # the counter runtime's own tally of its workers' time, beside the
    # chassis's one fold of every incarnation's rounds
    pytest.param({"src/repro/decentral/executor.py": (
        "def worker_books(records):\n    return {}\n")},
        "REP404", "def worker_books at decentral/executor.py",
        id="REP404-second-books-fold"),
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
    # the hooks the sampling wrapper and the Mandelbrot loop had
    pytest.param({"src/repro/workloads/base.py": (
        "class Workload:\n    def __getstate__(self):\n"
        "        return uncached_state(self)\n"),
        "src/repro/workloads/reorder.py": (
        "class ReorderedWorkload(Workload):\n"
        "    def __setstate__(self, state):\n"
        "        self.__dict__.update(state)\n")},
        "REP411", "reorder.py", id="REP411-second-pickle-hook"),
    # the frame writer's own orjson call, before the one codec
    pytest.param({"src/repro/obs/export.py": "import orjson\n",
                  "src/repro/service/protocol.py": (
                      "from orjson import dumps\n")},
        "REP412", "service/protocol.py", id="REP412-second-orjson-import"),
    # a worker stamping from its own origin, beside the run's one clock
    pytest.param({"src/repro/runtime/worker.py": (
        "import time\n\ndef stamp():\n    return time.perf_counter()\n")},
        "REP413", "time.perf_counter outside", id="REP413-second-clock"),
    # the Mandelbrot loop's own burn, one kernel call per column, beside
    # the one kernel helper
    pytest.param({"src/repro/workloads/mandelbrot.py": (
        "class MandelbrotWorkload(Workload):\n"
        "    def _kernel(self, cols):\n"
        "        yield cols, escape_counts(self._xs[cols, None], 64)\n\n"
        "    def burn(self, start, stop):\n"
        "        for col in range(start, stop):\n"
        "            escape_counts(self._xs[col] + 1j * self._ys, 64)\n")},
        "REP414", "mandelbrot.py:burn, not only", id="REP414-per-column-burn"),
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
