"""Evaluation harness: runners, metrics, defaults, table formatting."""

from .defaults import (
    EVAL_MI100,
    EVAL_PHOTON,
    EVAL_R9NANO,
    QUICK_SIZES,
)
from .metrics import (
    Comparison,
    compare_apps,
    compare_kernels,
    sim_time_error,
    wall_speedup,
)
from .runner import (
    LEVEL_METHODS,
    run_methods_app,
    run_methods_kernel,
    workload_factory,
)
from .tables import comparison_table, format_table

__all__ = [
    "Comparison",
    "EVAL_MI100",
    "EVAL_PHOTON",
    "EVAL_R9NANO",
    "LEVEL_METHODS",
    "QUICK_SIZES",
    "compare_apps",
    "compare_kernels",
    "comparison_table",
    "format_table",
    "run_methods_app",
    "run_methods_kernel",
    "sim_time_error",
    "wall_speedup",
    "workload_factory",
]
