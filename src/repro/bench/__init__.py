"""Benchmark harness regenerating every Section-7 table and figure."""

from .harness import (
    ExperimentResult,
    Series,
    ascii_plot,
    budget_grid,
    markdown_table,
    msr_budget_grid,
    results_dir,
    run_bmr_experiment,
    run_experiment,
    run_msr_experiment,
    timed,
)
from .figures import (
    DEFAULT_SCALES,
    build,
    fig10,
    fig11,
    fig12,
    fig13,
    footnote7_treewidth,
    table4,
    theorem1,
)

__all__ = [
    "Series",
    "ExperimentResult",
    "msr_budget_grid",
    "budget_grid",
    "run_experiment",
    "run_msr_experiment",
    "run_bmr_experiment",
    "ascii_plot",
    "markdown_table",
    "results_dir",
    "timed",
    "DEFAULT_SCALES",
    "build",
    "table4",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "theorem1",
    "footnote7_treewidth",
]
