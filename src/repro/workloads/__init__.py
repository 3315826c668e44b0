"""Parallel-loop workloads: Mandelbrot (the paper's test problem),
the Sec. 2.1 synthetic loop styles, sampling reordering, and the
matrix-add background load used for nondedicated runs."""

from .base import Workload, WorkloadError
from .mandelbrot import MandelbrotWorkload, escape_counts, render_ascii
from .matrix import matrix_add_load
from .reorder import (
    ReorderedWorkload,
    inverse_permutation,
    sampling_permutation,
)
from .synthetic import (
    ConditionalWorkload,
    GaussianPeakWorkload,
    LinearWorkload,
    RandomWorkload,
    SpinWorkload,
    TraceWorkload,
    UniformWorkload,
)

__all__ = [
    "Workload",
    "WorkloadError",
    "MandelbrotWorkload",
    "escape_counts",
    "render_ascii",
    "ReorderedWorkload",
    "sampling_permutation",
    "inverse_permutation",
    "UniformWorkload",
    "SpinWorkload",
    "TraceWorkload",
    "LinearWorkload",
    "ConditionalWorkload",
    "RandomWorkload",
    "GaussianPeakWorkload",
    "matrix_add_load",
]
