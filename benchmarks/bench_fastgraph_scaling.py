"""Fastgraph scaling benchmark: dict reference vs flat-array kernels.

Times the greedy family (LMG, LMG-All, MP) on natural-preset graphs of
increasing size, once through the dict-of-dicts reference solvers and
once through the :mod:`repro.fastgraph` array kernels, and verifies the
two backends produce cost-identical plans at every point.  Results are
written to ``BENCH_fastgraph.json`` at the repository root::

    PYTHONPATH=src python benchmarks/bench_fastgraph_scaling.py
    PYTHONPATH=src python benchmarks/bench_fastgraph_scaling.py --smoke

The acceptance bar tracked by CI: LMG's array kernel is >= 5x faster
than the dict reference on a natural-preset graph with >= 2000
versions (the ``--smoke`` run skips that size; the JSON records
whichever sizes were run).  The top-level ``edmonds_rounds`` — the
start tree's contraction rounds at the largest size — is a work counter
that ``bench-check`` gates exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.algorithms import lmg, lmg_all, mp
from repro.algorithms.arborescence import min_storage_plan_tree
from repro.bench import timed
from repro.fastgraph import lmg_all_array, lmg_array, mp_array
from repro.fastgraph.arborescence import edmonds_rounds
from repro.gen.presets import PRESETS

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUT = REPO_ROOT / "BENCH_fastgraph.json"

#: Natural preset used for scaling (bidirectional branch/merge history).
PRESET = "996.ICU"

FULL_SIZES = (250, 500, 1000, 2000)
SMOKE_SIZES = (100, 250)


def _build(nodes: int):
    preset = PRESETS[PRESET]
    return preset.build(scale=nodes / preset.n_commits)


def bench_graph(nodes: int, *, budget_factor: float = 2.0) -> list[dict]:
    """One scaling point: all three solvers, both backends."""
    g = _build(nodes)
    cg = g.compile()  # compile outside the timed region, as sweeps do
    base = min_storage_plan_tree(g).total_storage
    budget = base * budget_factor
    retrieval_budget = g.max_retrieval_cost() * 2

    pairs = [
        ("lmg", lmg, lmg_array, budget),
        ("lmg-all", lmg_all, lmg_all_array, budget),
        ("mp", mp, mp_array, retrieval_budget),
    ]
    rows = []
    for name, ref_fn, arr_fn, b in pairs:
        dict_s, ref_tree = timed(ref_fn, g, b)
        # the start tree is cached per compiled graph: time each array
        # solve on a fresh compile so it pays for Edmonds as dict does
        cold = g.copy()
        cold.compile()
        array_s, arr_tree = timed(arr_fn, cold, b)
        plans_equal = ref_tree.parent == arr_tree.parent_map()
        rows.append(
            {
                "solver": name,
                "preset": PRESET,
                "nodes": g.num_versions,
                "edges": g.num_deltas,
                "budget": b,
                "dict_seconds": dict_s,
                "array_seconds": array_s,
                "speedup": dict_s / array_s if array_s > 0 else float("inf"),
                "plans_identical": plans_equal,
                "storage": arr_tree.total_storage,
                "retrieval": arr_tree.total_retrieval,
            }
        )
        status = "OK" if plans_equal else "PLAN MISMATCH"
        print(
            f"{PRESET:>10} n={g.num_versions:<6} {name:<8} "
            f"dict={dict_s:8.3f}s array={array_s:8.3f}s "
            f"speedup={rows[-1]['speedup']:6.1f}x [{status}]",
            flush=True,
        )
    rounds = edmonds_rounds(cg)
    for row in rows:
        row["edmonds_rounds"] = rounds
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes only (CI smoke run, < 60 s)",
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="*",
        default=None,
        help="explicit node counts (overrides --smoke)",
    )
    parser.add_argument("--out", default=str(DEFAULT_OUT), help="JSON output path")
    args = parser.parse_args(argv)

    sizes = args.sizes or (SMOKE_SIZES if args.smoke else FULL_SIZES)
    rows: list[dict] = []
    for nodes in sizes:
        rows.extend(bench_graph(nodes))

    mismatches = [r for r in rows if not r["plans_identical"]]
    lmg_rows = [r for r in rows if r["solver"] == "lmg" and r["nodes"] >= 2000]
    payload = {
        "preset": PRESET,
        "sizes": list(sizes),
        "rows": rows,
        "all_plans_identical": not mismatches,
        "lmg_speedup_at_2000_nodes": max(
            (r["speedup"] for r in lmg_rows), default=None
        ),
        "edmonds_rounds": max(rows, key=lambda r: r["nodes"])["edmonds_rounds"],
    }
    Path(args.out).write_text(json.dumps(payload, indent=1))
    print(f"wrote {args.out}")
    if mismatches:
        print(f"FAIL: {len(mismatches)} backend plan mismatches", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
