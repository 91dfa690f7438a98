"""Materialization-store benchmark: dedup, checkout latency, migration cost.

Solves a seeded random repository under two MSR storage budgets, executes
the first plan against a content-addressed store, and measures the three
quantities the store exists to optimize:

* **dedup ratio** — bytes stored (content-addressed blobs + manifests +
  deltas) vs the sum of raw snapshot bytes the plan's materialized rows
  would cost without sharing;
* **checkout latency vs chain depth** — per-version reconstruction time
  bucketed by delta-chain length, the retrieval-cost proxy the paper's
  objectives optimize;
* **migration cost vs full rematerialization** — wall-clock for
  ``migrate(plan_a, plan_b)`` (rewrites only the tree diff) vs
  materializing ``plan_b`` from scratch, plus the op-counter identity
  ``edges_rewritten == |edge_set(a) ^ edge_set(b)|``;
* **checkout LRU cache** — repeated checkouts of the deepest-chain
  working set, cached store vs ``checkout_cache=0``: the cache serves
  repeats from memory and cuts cold chains at cached ancestors
  (``checkout_cache_speedup``), returning identical bytes.

Results go to ``BENCH_store.json`` at the repository root::

    PYTHONPATH=src python benchmarks/bench_store.py
    PYTHONPATH=src python benchmarks/bench_store.py --smoke

Acceptance gates (all deterministic booleans, committed in the smoke
baseline): every checkout byte-identical, dedup engaged, fsck clean,
migration object-for-object equal to a from-scratch build, migration
touches only the tree diff.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

from repro.algorithms.registry import get_solver
from repro.bench import timed
from repro.fastgraph import ArrayPlanTree, CompiledGraph
from repro.fastgraph.arborescence import min_storage_parent_edges
from repro.store import MaterializationStore, materialize, plan_parent_map
from repro.vcs import build_graph_from_repo, random_repository

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUT = REPO_ROOT / "BENCH_store.json"

FULL_NODES = 600
SMOKE_NODES = 120
SEED = 2024
#: below this size the cache panel's warm pass is micro-second scale
#: and the ratio is CI noise — the top-level tracked key is withheld
#: (the nested panel always carries it), like bench_scaling_xl.py
TRACKED_SPEEDUP_MIN_NODES = 300
# Two storage budgets around the same instance: plan A is the standing
# store, plan B the re-solve target the migration benchmark moves to.
SPAN_A = 2.0
SPAN_B = 3.0


def edge_set(plan):
    return {(p, v) for v, p in plan_parent_map(plan).items()}


def stores_equal(a, b) -> bool:
    """Object-for-object equality (records, digests, object bytes)."""
    if a.edge_set() != b.edge_set():
        return False
    if any(a.digest(v) != b.digest(v) for v in a.versions):
        return False
    a_keys, b_keys = set(a.objects.keys()), set(b.objects.keys())
    if a_keys != b_keys:
        return False
    return all(a.objects.get(k) == b.objects.get(k) for k in a_keys)


def bench_store(nodes: int) -> dict:
    repo = random_repository(nodes, seed=SEED)
    n = repo.num_commits
    graph = build_graph_from_repo(repo)
    cg = CompiledGraph(graph)
    min_storage = ArrayPlanTree(cg, min_storage_parent_edges(cg)).total_storage
    solve = get_solver("msr", "lmg")
    plan_a = solve(graph, SPAN_A * min_storage)
    plan_b = solve(graph, SPAN_B * min_storage)
    assert plan_a is not None and plan_b is not None

    # ---- materialize + dedup ratio -----------------------------------
    materialize_seconds, store = timed(materialize, repo, plan_a)
    raw_bytes = sum(c.total_bytes() for c in repo.commits)
    stored_bytes = store.total_bytes()
    dedup_ratio = raw_bytes / stored_bytes if stored_bytes else float("inf")

    # ---- checkout latency vs chain depth -----------------------------
    # measured on a cache-less store: the panel is the *replay* cost the
    # retrieval objective models, not the (cache-flattened) served cost
    cold_store = MaterializationStore(checkout_cache=0)
    cold_store.materialize(repo, plan_a)
    snapshots = {c.id: c.snapshot for c in repo.commits}
    by_depth: dict[int, list[float]] = defaultdict(list)
    roundtrip_identical = True
    for v in cold_store.versions:
        t0 = time.perf_counter()
        snap = cold_store.checkout(v)
        by_depth[cold_store.chain_depth(v)].append(time.perf_counter() - t0)
        if snap != snapshots[v]:
            roundtrip_identical = False
    checkout_by_depth = [
        {
            "depth": depth,
            "count": len(times),
            "mean_seconds": sum(times) / len(times),
        }
        for depth, times in sorted(by_depth.items())
    ]
    fsck_clean = store.fsck() == []

    # ---- checkout LRU cache: warm working set vs cache-less ----------
    # the access pattern the cache exists for: a reviewer bouncing
    # between the deepest (most replay-expensive) versions
    working_set = sorted(
        store.versions, key=store.chain_depth, reverse=True
    )[:12]
    rounds = 5
    cache_checkouts_identical = True
    t0 = time.perf_counter()
    for _ in range(rounds):
        for v in working_set:
            if store.checkout(v) != snapshots[v]:
                cache_checkouts_identical = False
    warm_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(rounds):
        for v in working_set:
            if cold_store.checkout(v) != snapshots[v]:
                cache_checkouts_identical = False
    cacheless_seconds = time.perf_counter() - t0
    checkout_cache_speedup = (
        cacheless_seconds / warm_seconds if warm_seconds else float("inf")
    )

    # ---- migration vs full rematerialization -------------------------
    migrating = materialize(repo, plan_a)
    migrate_seconds, report = timed(migrating.migrate, plan_a, plan_b)
    scratch_seconds, scratch = timed(materialize, repo, plan_b)
    symdiff = len(edge_set(plan_a) ^ edge_set(plan_b))
    migration_matches_scratch = stores_equal(migrating, scratch)
    migration_touches_only_diff = report.edges_rewritten == symdiff
    migration_cost_ratio = (
        migrate_seconds / scratch_seconds if scratch_seconds else float("inf")
    )

    ok = (
        roundtrip_identical
        and fsck_clean
        and stored_bytes <= raw_bytes
        and migration_matches_scratch
        and migration_touches_only_diff
        and cache_checkouts_identical
    )
    print(
        f"n={n:<6} dedup={dedup_ratio:6.2f}x "
        f"cache={checkout_cache_speedup:5.1f}x "
        f"materialize={materialize_seconds * 1e3:8.1f} ms "
        f"migrate={migrate_seconds * 1e3:7.1f} ms "
        f"scratch={scratch_seconds * 1e3:7.1f} ms "
        f"rewritten={report.edges_rewritten}/{symdiff} "
        f"[{'OK' if ok else 'MISMATCH'}]",
        flush=True,
    )
    return {
        "nodes": n,
        "seed": SEED,
        "solver": "lmg",
        "span_a": SPAN_A,
        "span_b": SPAN_B,
        "budget_a": SPAN_A * min_storage,
        "budget_b": SPAN_B * min_storage,
        "raw_bytes": raw_bytes,
        "stored_bytes": stored_bytes,
        "dedup_ratio": dedup_ratio,
        "materialize_seconds": materialize_seconds,
        "objects": store.objects.count(),
        "max_chain_depth": max(store.chain_depth(v) for v in store.versions),
        "checkout_by_depth": checkout_by_depth,
        "migration": {
            "edges_written": report.edges_written,
            "edges_deleted": report.edges_deleted,
            "edges_rewritten": report.edges_rewritten,
            "edge_symdiff": symdiff,
            "objects_written": report.objects_written,
            "objects_deleted": report.objects_deleted,
            "migrate_seconds": migrate_seconds,
            "scratch_seconds": scratch_seconds,
        },
        "migration_cost_ratio": migration_cost_ratio,
        "checkout_cache": {
            "working_set": len(working_set),
            "rounds": rounds,
            "warm_seconds": warm_seconds,
            "cacheless_seconds": cacheless_seconds,
            "speedup": checkout_cache_speedup,
        },
        **(
            {"checkout_cache_speedup": checkout_cache_speedup}
            if n >= TRACKED_SPEEDUP_MIN_NODES
            else {}
        ),
        "cache_checkouts_identical": cache_checkouts_identical,
        "roundtrip_identical": roundtrip_identical,
        "dedup_engaged": stored_bytes <= raw_bytes,
        "fsck_clean": fsck_clean,
        "migration_matches_scratch": migration_matches_scratch,
        "migration_touches_only_diff": migration_touches_only_diff,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small size only (CI smoke run, < 60 s)",
    )
    parser.add_argument("--nodes", type=int, default=None, help="explicit node count")
    parser.add_argument("--out", default=str(DEFAULT_OUT), help="JSON output path")
    args = parser.parse_args(argv)

    nodes = args.nodes or (SMOKE_NODES if args.smoke else FULL_NODES)
    payload = bench_store(nodes)
    payload["smoke"] = args.smoke

    Path(args.out).write_text(json.dumps(payload, indent=1, allow_nan=False))
    print(f"wrote {args.out}")
    failures = [
        key
        for key in (
            "roundtrip_identical",
            "dedup_engaged",
            "fsck_clean",
            "migration_matches_scratch",
            "migration_touches_only_diff",
            "cache_checkouts_identical",
        )
        if not payload[key]
    ]
    for key in failures:
        print(f"FAIL: {key} is False", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
