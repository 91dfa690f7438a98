"""BMR benchmark: array kernels vs dict reference + online BMR ingest.

Two panels, both written to ``BENCH_bmr.json`` at the repository root:

1. **Kernels** — times the BMR greedy family (``bmr-lmg``,
   ``mp-local``) on natural-preset graphs of increasing size, once
   through the dict-of-dicts reference (:mod:`repro.algorithms.
   bmr_greedy`) and once through the :mod:`repro.fastgraph` array
   kernels, verifying plan identity at every point.
2. **Engine** — streams a simulated repository through
   :class:`repro.engine.IngestEngine` in ``problem="bmr"`` mode
   (per-arrival retrieval-feasible attach, staleness-bounded full BMR
   re-solves) against the rebuild-and-resolve baseline: recompile the
   whole graph and run a full BMR solve per arrival (sampled).

::

    PYTHONPATH=src python benchmarks/bench_bmr_engine.py
    PYTHONPATH=src python benchmarks/bench_bmr_engine.py --smoke

Acceptance gates: every array-kernel plan equals its dict-reference
plan, the ``bmr-lmg`` array kernel is >= 5x faster than the dict
reference at >= 2000 versions (>= 1.3x in the CI smoke run, whose
graphs are too small to amortize), the engine's post-re-solve plan
equals a from-scratch BMR solve on the final graph, and every arrival's
plan satisfies the retrieval budget.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.algorithms.bmr_greedy import bmr_lmg, mp_local
from repro.bench import timed
from repro.core.graph import VersionGraph
from repro.core.tolerance import within_budget
from repro.engine import IngestEngine
from repro.fastgraph import bmr_lmg_array, mp_local_array
from repro.fastgraph.compiled import CompiledGraph
from repro.gen.presets import PRESETS
from repro.vcs import random_repository
from repro.vcs.build import commit_deltas

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUT = REPO_ROOT / "BENCH_bmr.json"

#: Natural preset used for kernel scaling (branch/merge history).
PRESET = "996.ICU"

FULL_SIZES = (250, 500, 1000, 2000)
SMOKE_SIZES = (100, 250)
FULL_INGEST_NODES = 2000
SMOKE_INGEST_NODES = 250
SEED = 2024
BUDGET_SPAN = 2.0  # retrieval budget = span x max single-delta retrieval
STALENESS = 0.1
ENGINE_SOLVER = "mp-local"


# ----------------------------------------------------------------------
# panel 1: kernels
# ----------------------------------------------------------------------
def bench_kernels(nodes: int) -> list[dict]:
    """One scaling point: both BMR greedy solvers, both backends."""
    preset = PRESETS[PRESET]
    g = preset.build(scale=nodes / preset.n_commits)
    g.compile()  # compile outside the timed region, as sweeps do
    budget = g.max_retrieval_cost() * BUDGET_SPAN

    rows = []
    for name, ref_fn, arr_fn in [
        ("bmr-lmg", bmr_lmg, bmr_lmg_array),
        ("mp-local", mp_local, mp_local_array),
    ]:
        dict_s, ref_tree = timed(ref_fn, g, budget)
        array_s, arr_tree = timed(arr_fn, g, budget)
        plans_equal = ref_tree.parent == arr_tree.parent_map()
        feasible = within_budget(arr_tree.max_retrieval(), budget)
        rows.append(
            {
                "solver": name,
                "preset": PRESET,
                "nodes": g.num_versions,
                "edges": g.num_deltas,
                "retrieval_budget": budget,
                "dict_seconds": dict_s,
                "array_seconds": array_s,
                "speedup": dict_s / array_s if array_s > 0 else float("inf"),
                "plans_identical": plans_equal,
                "budget_feasible": bool(feasible),
                "storage": arr_tree.total_storage,
                "max_retrieval": arr_tree.max_retrieval(),
            }
        )
        status = "OK" if plans_equal and feasible else "MISMATCH"
        print(
            f"{PRESET:>10} n={g.num_versions:<6} {name:<8} "
            f"dict={dict_s:8.3f}s array={array_s:8.3f}s "
            f"speedup={rows[-1]['speedup']:6.1f}x [{status}]",
            flush=True,
        )
    return rows


# ----------------------------------------------------------------------
# panel 2: online BMR ingest
# ----------------------------------------------------------------------
def prediff(repo) -> list[list[tuple]]:
    """Per-commit engine-format delta lists (diff cost paid once)."""
    return [commit_deltas(repo, c) for c in repo.commits]


def bench_engine(nodes: int, baseline_every: int) -> dict:
    """Stream a repository online vs rebuild-and-resolve per arrival."""
    repo = random_repository(nodes, seed=SEED)
    n = repo.num_commits
    deltas_by_commit = prediff(repo)
    final_graph = VersionGraph(name="bmr-ingest-bench")
    for c in repo.commits:
        final_graph.add_version(c.id, float(c.total_bytes()))
    for deltas in deltas_by_commit:
        for u, v, s, r in deltas:
            final_graph.add_delta(u, v, s, r)
    budget = final_graph.max_retrieval_cost() * BUDGET_SPAN
    cg_final = CompiledGraph(final_graph)

    # ---- incremental path: the engine, timed per arrival -------------
    engine = IngestEngine(
        problem="bmr",
        budget=budget,
        solver=ENGINE_SOLVER,
        staleness_threshold=STALENESS,
    )
    ingest_seconds = np.empty(n)
    all_feasible = True
    for c in repo.commits:
        stats = engine.ingest_version(
            c.id, float(c.total_bytes()), deltas_by_commit[c.id]
        )
        ingest_seconds[c.id] = stats.seconds
        all_feasible &= bool(within_budget(stats.max_retrieval, budget))

    # ---- baseline: rebuild-and-resolve per arrival (sampled) ---------
    baseline_g = VersionGraph(name="baseline")
    baseline_samples = []
    for c in repo.commits:
        baseline_g.add_version(c.id, float(c.total_bytes()))
        for u, v, s, r in deltas_by_commit[c.id]:
            baseline_g.add_delta(u, v, s, r)
        if c.id % baseline_every == 0 or c.id == n - 1:
            t0 = time.perf_counter()
            cg = CompiledGraph(baseline_g)  # from-scratch recompile
            mp_local_array(cg, budget)  # full BMR re-solve
            baseline_samples.append(
                {"index": c.id, "seconds": time.perf_counter() - t0}
            )

    # ---- acceptance checks -------------------------------------------
    final_tree = engine.resolve()
    ref_tree = mp_local_array(cg_final, budget)
    plans_identical = (
        final_tree.to_plan() == ref_tree.to_plan()
        and final_tree.total_storage == ref_tree.total_storage
        and final_tree.total_retrieval == ref_tree.total_retrieval
    )

    mean_ingest = float(ingest_seconds.mean())
    mean_rebuild = float(np.mean([s["seconds"] for s in baseline_samples]))
    speedup = mean_rebuild / mean_ingest if mean_ingest > 0 else float("inf")
    print(
        f"n={n:<6} bmr-ingest={mean_ingest * 1e3:8.3f} ms/arrival "
        f"rebuild+resolve={mean_rebuild * 1e3:8.3f} ms/arrival "
        f"speedup={speedup:7.1f}x resolves={engine.resolves} "
        f"[{'OK' if plans_identical and all_feasible else 'MISMATCH'}]",
        flush=True,
    )
    return {
        "nodes": n,
        "edges": final_graph.num_deltas,
        "seed": SEED,
        "problem": "bmr",
        "solver": ENGINE_SOLVER,
        "retrieval_budget": budget,
        "staleness_threshold": STALENESS,
        "resolves": engine.resolves,
        "baseline_sampled_every": baseline_every,
        "mean_ingest_seconds": mean_ingest,
        "mean_rebuild_resolve_seconds": mean_rebuild,
        "ingest_speedup": speedup,
        "plans_identical": plans_identical,
        "all_arrivals_feasible": all_feasible,
        "final_storage": final_tree.total_storage,
        "final_max_retrieval": final_tree.max_retrieval(),
    }


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
        help="explicit kernel-panel node counts (overrides --smoke)",
    )
    parser.add_argument("--out", default=str(DEFAULT_OUT), help="JSON output path")
    args = parser.parse_args(argv)

    sizes = args.sizes or (SMOKE_SIZES if args.smoke else FULL_SIZES)
    kernel_rows: list[dict] = []
    for nodes in sizes:
        kernel_rows.extend(bench_kernels(nodes))

    ingest_nodes = SMOKE_INGEST_NODES if args.smoke else FULL_INGEST_NODES
    engine_payload = bench_engine(ingest_nodes, 25 if args.smoke else 50)

    mismatches = [
        r
        for r in kernel_rows
        if not (r["plans_identical"] and r["budget_feasible"])
    ]
    lmg_rows = [
        r for r in kernel_rows if r["solver"] == "bmr-lmg" and r["nodes"] >= 2000
    ]
    speedup_floor = 1.3 if args.smoke else 5.0
    best_speedup = max(
        (r["speedup"] for r in kernel_rows if r["solver"] == "bmr-lmg"),
        default=0.0,
    )
    payload = {
        "preset": PRESET,
        "sizes": list(sizes),
        "smoke": args.smoke,
        "kernels": kernel_rows,
        "engine": engine_payload,
        "all_plans_identical": not mismatches and engine_payload["plans_identical"],
        "all_arrivals_feasible": engine_payload["all_arrivals_feasible"],
        "bmr_lmg_speedup_at_2000_nodes": max(
            (r["speedup"] for r in lmg_rows), default=None
        ),
        "speedup_floor": speedup_floor,
    }
    Path(args.out).write_text(json.dumps(payload, indent=1, allow_nan=False))
    print(f"wrote {args.out}")
    if mismatches:
        print(f"FAIL: {len(mismatches)} backend plan mismatches", file=sys.stderr)
        return 1
    if not engine_payload["plans_identical"]:
        print("FAIL: engine plan != from-scratch BMR solve", file=sys.stderr)
        return 1
    if not engine_payload["all_arrivals_feasible"]:
        print("FAIL: an arrival plan violated the retrieval budget", file=sys.stderr)
        return 1
    if best_speedup < speedup_floor:
        print(
            f"FAIL: bmr-lmg array speedup {best_speedup:.1f}x below the "
            f"{speedup_floor:.1f}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
