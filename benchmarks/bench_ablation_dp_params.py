"""Section-6.2 ablation — DP-MSR's discretization and pruning knobs.

The paper's practical DP replaces the FPTAS's exact machinery with
(1) storage-axis discretization, (2) geometric ticks, (3) pruning, and
reports "comparable results but significantly improved run time".  We
quantify that on the styleguide preset: solution quality as a function
of the tick budget, and the run-time/quality effect of the pruning cap.
"""

import math

import numpy as np

from repro.algorithms.dp_bmr import extract_index
from repro.algorithms.dp_msr import DPMSRSolver
from repro.bench import markdown_table, timed
from repro.bench.harness import msr_budget_grid

TICK_GRID = [8, 32, 128]


def _frontier(g, index, **options):
    """Build and solve one DP-MSR instance: the timed region."""
    return DPMSRSolver(g, index=index, **options).frontier()


def bench_tick_budget_quality(benchmark, dataset_cache):
    g = dataset_cache("styleguide")
    index = extract_index(g)
    budgets = msr_budget_grid(g, points=5)

    def run():
        out = {}
        for ticks in TICK_GRID:
            dt, f = timed(_frontier, g, index, ticks=ticks)
            out[ticks] = (dt, [f.best_retrieval_within(b) for b in budgets])
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [ticks, f"{dt:.3f}s"] + vals for ticks, (dt, vals) in out.items()
    ]
    print()
    print(
        markdown_table(
            ["ticks", "dp time"] + [f"S={b:.3g}" for b in budgets], rows
        )
    )
    # more ticks -> no worse retrieval at every budget (small tolerance
    # because bucket boundaries shift)
    lo, hi = out[TICK_GRID[0]][1], out[TICK_GRID[-1]][1]
    for a, b in zip(lo, hi):
        if math.isfinite(a) and math.isfinite(b):
            assert b <= a * 1.05 + 1e-9


def bench_pruning_cap(benchmark, dataset_cache):
    """Pruning at 2x min storage (the paper's uncompressed setting)."""
    g = dataset_cache("styleguide")
    index = extract_index(g)
    budgets = msr_budget_grid(g, points=4, span=1.9)

    def run():
        t_full, full = timed(_frontier, g, index, ticks=96)
        cap = budgets[-1]
        t_pruned, pruned = timed(_frontier, g, index, ticks=96, storage_cap=cap)
        return full, t_full, pruned, t_pruned

    full, t_full, pruned, t_pruned = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nfull DP: {t_full:.3f}s ({len(full)} pts); pruned: {t_pruned:.3f}s ({len(pruned)} pts)")
    # pruning keeps quality inside the cap region (same thinning budget,
    # so small bucket-boundary wiggles are allowed)
    for b in budgets:
        a = full.best_retrieval_within(b)
        p = pruned.best_retrieval_within(b)
        if math.isfinite(a) and a > 0:
            assert p <= a * 1.1 + 1e-9
    # and never takes meaningfully longer
    assert t_pruned <= t_full * 1.5 + 0.5
