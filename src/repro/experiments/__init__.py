"""Paper experiments: one module per table/figure plus the CLI runner.

See DESIGN.md's experiment index for the table/figure -> module map and
EXPERIMENTS.md for paper-vs-measured results.  Importing the package
loads only its config; ``from repro.experiments import windows``.
"""

from .config import (
    FAST_SLOW_RATIO,
    OVERLOAD_Q,
    overload_pattern,
    paper_cluster,
    paper_workload,
    speedup_configuration,
)

__all__ = [
    "FAST_SLOW_RATIO",
    "OVERLOAD_Q",
    "paper_workload",
    "paper_cluster",
    "speedup_configuration",
    "overload_pattern",
]
