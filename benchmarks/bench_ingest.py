"""Online ingest benchmark: incremental compile + repair vs rebuild-and-resolve.

Streams a simulated repository (real file contents, byte-accurate Myers
delta costs) through :class:`repro.engine.IngestEngine` and times every
arrival: the mutation-event append extends the cached compiled graph in
place, the live plan is repaired with an O(depth) greedy attach, and
staleness-bounded full re-solves keep it near-optimal.  The baseline is
what the batch pipeline would have to do per arrival: recompile the
whole graph from scratch and run a full solve (sampled every
``--baseline-every`` arrivals to keep the benchmark finite, since it is
hundreds of times slower).

Diff costs are precomputed once and shared by both paths, so the
comparison isolates exactly the ISSUE-3 acceptance quantity — per
arrival, *incremental compile + repair* vs *rebuild and re-solve*.
Results go to ``BENCH_ingest.json`` at the repository root::

    PYTHONPATH=src python benchmarks/bench_ingest.py
    PYTHONPATH=src python benchmarks/bench_ingest.py --smoke

Acceptance gates: the engine's post-re-solve plan must equal a
from-scratch solve on the final graph, the incremental compiled graph
must equal a fresh compile elementwise, and mean ingest cost at 2000
versions must be >= 10x cheaper than rebuild-and-resolve (>= 2x in the
CI smoke run, whose graphs are too small to amortize).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.graph import VersionGraph
from repro.engine import IngestEngine
from repro.fastgraph import lmg_array
from repro.fastgraph.compiled import CompiledGraph
from repro.vcs import random_repository
from repro.vcs.build import commit_deltas

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUT = REPO_ROOT / "BENCH_ingest.json"

FULL_NODES = 2000
SMOKE_NODES = 250
SEED = 2024
# Dynamic budget = factor x the engine's online min-storage lower bound
# (the CLI default).  A budget that grows with the stream keeps every
# prefix realistically constrained; a fixed final-size budget would let
# early prefixes materialize everything (zero-retrieval degenerate
# phase) and re-solve on every arrival.
BUDGET_FACTOR = 4.0
STALENESS = 0.1

COMPARED_ARRAYS = (
    "node_storage",
    "edge_src",
    "edge_dst",
    "edge_storage",
    "edge_retrieval",
    "aux_edge",
    "out_indptr",
    "out_edges",
    "in_indptr",
    "in_edges",
)


def prediff(repo) -> list[list[tuple]]:
    """Per-commit engine-format delta lists (diff cost paid once)."""
    return [commit_deltas(repo, c) for c in repo.commits]


def build_batch_graph(repo, deltas_by_commit) -> VersionGraph:
    g = VersionGraph(name="ingest-bench")
    for c in repo.commits:
        g.add_version(c.id, float(c.total_bytes()))
    for deltas in deltas_by_commit:
        for u, v, s, r in deltas:
            g.add_delta(u, v, s, r)
    return g


def bench_ingest(nodes: int, baseline_every: int, entry_every: int) -> dict:
    repo = random_repository(nodes, seed=SEED)
    n = repo.num_commits
    deltas_by_commit = prediff(repo)
    final_graph = build_batch_graph(repo, deltas_by_commit)
    cg_final = CompiledGraph(final_graph)

    # ---- incremental path: the engine, timed per arrival -------------
    engine = IngestEngine(
        budget_factor=BUDGET_FACTOR, solver="lmg", staleness_threshold=STALENESS
    )
    entries = []
    ingest_seconds = np.empty(n)
    budgets = np.empty(n)  # per-arrival budgets, replayed by the baseline
    for c in repo.commits:
        stats = engine.ingest_version(
            c.id, float(c.total_bytes()), deltas_by_commit[c.id]
        )
        ingest_seconds[c.id] = stats.seconds
        budgets[c.id] = stats.budget
        if c.id % entry_every == 0 or c.id == n - 1:
            entries.append(
                {
                    "index": stats.index,
                    "ingest_seconds": stats.seconds,
                    "budget": stats.budget,
                    "staleness": stats.staleness,
                    "resolved": stats.resolved,
                    "storage": stats.storage,
                    "retrieval": stats.retrieval,
                }
            )

    # ---- baseline: rebuild-and-resolve per arrival (sampled) ---------
    # the same graph stream and the same per-arrival budgets; each
    # sample pays what the batch pipeline pays per arrival
    baseline_g = VersionGraph(name="baseline")
    baseline_samples = []
    for c in repo.commits:
        baseline_g.add_version(c.id, float(c.total_bytes()))
        for u, v, s, r in deltas_by_commit[c.id]:
            baseline_g.add_delta(u, v, s, r)
        if c.id % baseline_every == 0 or c.id == n - 1:
            t0 = time.perf_counter()
            cg = CompiledGraph(baseline_g)  # from-scratch recompile
            lmg_array(cg, float(budgets[c.id]))  # full re-solve
            baseline_samples.append(
                {"index": c.id, "seconds": time.perf_counter() - t0}
            )

    # ---- acceptance checks -------------------------------------------
    budget = engine.current_budget()
    final_tree = engine.resolve()
    ref_tree = lmg_array(cg_final, budget)
    plans_identical = (
        final_tree.to_plan() == ref_tree.to_plan()
        and final_tree.total_storage == ref_tree.total_storage
        and final_tree.total_retrieval == ref_tree.total_retrieval
    )
    cg_inc = engine.graph.compile()
    compiled_identical = all(
        np.array_equal(getattr(cg_inc, a), getattr(cg_final, a))
        for a in COMPARED_ARRAYS
    )

    mean_ingest = float(ingest_seconds.mean())
    mean_rebuild = float(
        np.mean([s["seconds"] for s in baseline_samples])
    )
    speedup = mean_rebuild / mean_ingest if mean_ingest > 0 else float("inf")
    print(
        f"n={n:<6} ingest={mean_ingest * 1e3:8.3f} ms/arrival "
        f"rebuild+resolve={mean_rebuild * 1e3:8.3f} ms/arrival "
        f"speedup={speedup:7.1f}x resolves={engine.resolves} "
        f"[{'OK' if plans_identical and compiled_identical else 'MISMATCH'}]",
        flush=True,
    )
    return {
        "nodes": n,
        "edges": final_graph.num_deltas,
        "seed": SEED,
        "budget_factor": BUDGET_FACTOR,
        "final_budget": budget,
        "solver": "lmg",
        "staleness_threshold": STALENESS,
        "resolves": engine.resolves,
        "entries": entries,
        "baseline_sampled_every": baseline_every,
        "baseline_samples": baseline_samples,
        "mean_ingest_seconds": mean_ingest,
        "mean_rebuild_resolve_seconds": mean_rebuild,
        "speedup": speedup,
        "plans_identical": plans_identical,
        "compiled_identical": compiled_identical,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small size only (CI smoke run, < 60 s)",
    )
    parser.add_argument("--nodes", type=int, default=None, help="explicit node count")
    parser.add_argument(
        "--baseline-every",
        type=int,
        default=None,
        help="sample the rebuild-and-resolve baseline every K arrivals "
        "(default: 25 smoke / 50 full)",
    )
    parser.add_argument("--out", default=str(DEFAULT_OUT), help="JSON output path")
    args = parser.parse_args(argv)

    nodes = args.nodes or (SMOKE_NODES if args.smoke else FULL_NODES)
    baseline_every = args.baseline_every or (25 if args.smoke else 50)
    entry_every = max(1, nodes // 100)
    payload = bench_ingest(nodes, baseline_every, entry_every)
    payload["smoke"] = args.smoke
    payload["speedup_floor"] = 2.0 if args.smoke else 10.0

    Path(args.out).write_text(json.dumps(payload, indent=1, allow_nan=False))
    print(f"wrote {args.out}")
    if not payload["plans_identical"]:
        print("FAIL: engine plan != from-scratch solve", file=sys.stderr)
        return 1
    if not payload["compiled_identical"]:
        print("FAIL: incremental compile != fresh compile", file=sys.stderr)
        return 1
    if payload["speedup"] < payload["speedup_floor"]:
        print(
            f"FAIL: ingest speedup {payload['speedup']:.1f}x below the "
            f"{payload['speedup_floor']:.0f}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
