"""Sharded multi-writer ingest benchmark: throughput, tail latency, stitch.

Drives mixed arrival/retirement traffic through
:class:`repro.engine.ShardRouter` and measures the three quantities the
sharded engine exists to optimize, each in the regime where it is
honestly attributable:

* **contended throughput** — four concurrent writer threads, tenant-
  keyed routing (each writer's versions and deltas stay on one shard,
  the deployment the router is designed for).  The baseline is the
  same four writers serializing through a single engine behind one
  lock: every writer stalls behind every full re-solve of the whole
  graph, while the sharded engines re-solve quarter-size instances
  that block only their own shard (and overlap in the array kernels'
  GIL-released sections).  Gate: ``throughput_speedup`` >= 2x at four
  shards (relaxed in the smoke tier, whose graphs are too small for
  re-solve stalls to dominate), and the same comparison's p99 ingest
  latency as ``p99_latency_speedup``.
* **scale** — >= 100k versions of mixed traffic (smoke: 8k) through
  the router in pure-repair mode (``staleness_threshold=inf``), the
  regime where arrivals cost O(depth) and retirement O(depth +
  subtree).  Gate: ``p99_latency_flat`` — the last-decile p99 stays
  within ``P99_FLAT_RATIO`` of the first decile's and under
  ``P99_CEILING_MS`` absolute, i.e. per-op cost does not grow with
  the version count; every shard plan must end feasible.
* **stitch fidelity** — a deterministic sequential stream fed to both
  a single engine and the router; the cross-shard stitch must produce
  a plan *identical* to the single engine's re-solve
  (``stitch_matches_single_engine``), because the journal preserves
  the kernels' tie-breaking order.

Results go to ``BENCH_shard.json`` at the repository root::

    PYTHONPATH=src python benchmarks/bench_shard_ingest.py
    PYTHONPATH=src python benchmarks/bench_shard_ingest.py --smoke
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.bench import timed
from repro.engine import IngestEngine, ShardRouter

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUT = REPO_ROOT / "BENCH_shard.json"

SEED = 2024
NUM_SHARDS = 4
PROBLEM = "msr"
BUDGET_FACTOR = 4.0
STALENESS = 0.1
RETIRE_EVERY = 9  # one retirement per nine arrivals (mixed traffic)

#: contended tier: versions per writer (four writers)
FULL_WRITER_VERSIONS = 1000
SMOKE_WRITER_VERSIONS = 150
#: scale tier: total versions through the router
FULL_SCALE_VERSIONS = 100_000
SMOKE_SCALE_VERSIONS = 8_000
#: stitch tier: deterministic sequential stream length
FULL_STITCH_VERSIONS = 1_000
SMOKE_STITCH_VERSIONS = 400

P99_FLAT_RATIO = 4.0  # last-decile p99 may be at most 4x the first's...
P99_FLOOR_MS = 5.0  # ...unless it is under 5 ms absolute (micro-jitter)
P99_CEILING_MS = 25.0


def make_stream(n, seed, prefix="", retire_every=RETIRE_EVERY):
    """A mixed arrival/retirement op stream with synthetic delta costs.

    ``("add", v, storage, deltas)`` / ``("retire", v)``; each arrival
    diffs against up to three earlier *live* versions of the same
    stream, and retired versions are never referenced again — the
    contract real traffic obeys.
    """
    rng = random.Random(seed)
    ops, live = [], []
    for i in range(n):
        v = f"{prefix}{i}"
        storage = float(rng.randint(80, 160))
        deltas = []
        for u in rng.sample(live, min(3, len(live))):
            s = float(rng.randint(5, 60))
            deltas.append((u, v, s, s * 1.5))
            deltas.append((v, u, s * 0.6, s * 0.9))
        ops.append(("add", v, storage, deltas))
        live.append(v)
        if retire_every and i % retire_every == retire_every - 1 and len(live) > 4:
            victim = live.pop(rng.randrange(len(live)))
            ops.append(("retire", victim))
    return ops


def apply_op(sink, op):
    if op[0] == "add":
        sink.ingest_version(op[1], op[2], op[3])
    else:
        sink.retire_version(op[1])


def tenant_key(v: str) -> int:
    """``"w2.17" -> 2``: route each writer's namespace to one shard."""
    return int(v[1:v.index(".")])


# ----------------------------------------------------------------------
# leg 1: contended multi-writer throughput
# ----------------------------------------------------------------------
def run_writers(sink, streams, lock=None):
    """Four writer threads; returns (wall_seconds, per-op latencies)."""
    lats = [[] for _ in streams]

    def writer(t):
        for op in streams[t]:
            t0 = time.perf_counter()
            if lock is not None:
                with lock:
                    apply_op(sink, op)
            else:
                apply_op(sink, op)
            lats[t].append(time.perf_counter() - t0)

    threads = [
        threading.Thread(target=writer, args=(t,)) for t in range(len(streams))
    ]
    t0 = time.perf_counter()
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    wall = time.perf_counter() - t0
    return wall, np.array([x for lat in lats for x in lat])


def bench_contended(per_writer: int) -> dict:
    streams = [
        make_stream(per_writer, SEED + t, prefix=f"w{t}.")
        for t in range(NUM_SHARDS)
    ]
    total_ops = sum(len(s) for s in streams)

    single = IngestEngine(problem=PROBLEM, budget_factor=BUDGET_FACTOR,
                          staleness_threshold=STALENESS)
    single_wall, single_lat = run_writers(single, streams, lock=threading.Lock())

    with ShardRouter(
        NUM_SHARDS,
        problem=PROBLEM,
        budget_factor=BUDGET_FACTOR,
        staleness_threshold=STALENESS,
        shard_key=tenant_key,
    ) as router:
        shard_wall, shard_lat = run_writers(router, streams)
        shard_resolves = [s.resolves for s in router.shards]
        feasible = all(s.plan().is_feasible(s.graph) for s in router.shards)

    single_p99 = float(np.percentile(single_lat, 99))
    shard_p99 = float(np.percentile(shard_lat, 99))
    throughput_speedup = single_wall / shard_wall
    p99_speedup = single_p99 / shard_p99 if shard_p99 > 0 else float("inf")
    print(
        f"contended: {total_ops} ops x4 writers  "
        f"single {single_wall:6.1f}s (p99 {single_p99 * 1e3:7.1f} ms)  "
        f"sharded {shard_wall:6.1f}s (p99 {shard_p99 * 1e3:7.1f} ms)  "
        f"speedup {throughput_speedup:4.2f}x",
        flush=True,
    )
    return {
        "writers": NUM_SHARDS,
        "versions_per_writer": per_writer,
        "total_ops": total_ops,
        "single_wall_seconds": single_wall,
        "single_ops_per_second": total_ops / single_wall,
        "single_p99_seconds": single_p99,
        "single_resolves": single.resolves,
        "sharded_wall_seconds": shard_wall,
        "sharded_ops_per_second": total_ops / shard_wall,
        "sharded_p99_seconds": shard_p99,
        "sharded_resolves": shard_resolves,
        "all_shard_plans_feasible": feasible,
        "throughput_speedup": throughput_speedup,
        "p99_latency_speedup": p99_speedup,
    }


# ----------------------------------------------------------------------
# leg 2: scale (>= 100k versions, pure repair)
# ----------------------------------------------------------------------
def bench_scale(versions: int) -> dict:
    # round-robin interleave four tenant streams so every shard grows
    # evenly, like four steady writers observed from the router
    per = versions // NUM_SHARDS
    streams = [
        make_stream(per, SEED + 10 + t, prefix=f"w{t}.")
        for t in range(NUM_SHARDS)
    ]
    ops = [
        s[i] for i in range(max(map(len, streams))) for s in streams
        if i < len(s)
    ]
    router = ShardRouter(
        NUM_SHARDS,
        problem=PROBLEM,
        budget_factor=BUDGET_FACTOR,
        staleness_threshold=float("inf"),  # pure repair: the O(depth) path
        shard_key=tenant_key,
    )
    lat = np.empty(len(ops))
    t0 = time.perf_counter()
    for k, op in enumerate(ops):
        s0 = time.perf_counter()
        apply_op(router, op)
        lat[k] = time.perf_counter() - s0
    wall = time.perf_counter() - t0
    feasible = all(s.plan().is_feasible(s.graph) for s in router.shards)

    decile = max(1, len(ops) // 10)
    p99_first = float(np.percentile(lat[:decile], 99))
    p99_last = float(np.percentile(lat[-decile:], 99))
    p99_all = float(np.percentile(lat, 99))
    p99_flat = (
        p99_last <= max(P99_FLAT_RATIO * p99_first, P99_FLOOR_MS / 1e3)
        and p99_all <= P99_CEILING_MS / 1e3
    )
    print(
        f"scale:     {len(ops)} ops -> {sum(s.graph.num_versions for s in router.shards)} "
        f"live versions in {wall:5.1f}s ({len(ops) / wall:6.0f} ops/s)  "
        f"p99 first/last decile {p99_first * 1e3:5.2f}/{p99_last * 1e3:5.2f} ms "
        f"[{'flat' if p99_flat else 'GROWING'}]",
        flush=True,
    )
    return {
        "versions": versions,
        "total_ops": len(ops),
        "wall_seconds": wall,
        "ops_per_second": len(ops) / wall,
        "p99_first_decile_seconds": p99_first,
        "p99_last_decile_seconds": p99_last,
        "p99_seconds": p99_all,
        "p99_flat_ratio": P99_FLAT_RATIO,
        "p99_floor_ms": P99_FLOOR_MS,
        "p99_ceiling_ms": P99_CEILING_MS,
        "live_versions": sum(s.graph.num_versions for s in router.shards),
        "shard_resolves": [s.resolves for s in router.shards],
        "all_shard_plans_feasible": feasible,
        "p99_latency_flat": p99_flat,
    }


# ----------------------------------------------------------------------
# leg 3: stitch fidelity vs a single engine
# ----------------------------------------------------------------------
def bench_stitch(versions: int) -> dict:
    ops = make_stream(versions, SEED + 99, prefix="w0.")
    single = IngestEngine(problem=PROBLEM, budget_factor=BUDGET_FACTOR,
                          staleness_threshold=STALENESS)
    for op in ops:
        apply_op(single, op)
    ref_tree = single.resolve()
    ref_plan = ref_tree.to_plan()
    ref_obj = single.spec.tree_objective(ref_tree)

    with ShardRouter(
        NUM_SHARDS,
        problem=PROBLEM,
        budget_factor=BUDGET_FACTOR,
        staleness_threshold=STALENESS,
    ) as router:  # default CRC32 routing: deltas cross shards freely
        for op in ops:
            apply_op(router, op)
        stitch_seconds, plan = timed(router.stitch)
    matches = plan == ref_plan
    print(
        f"stitch:    {len(ops)} ops, stitch {stitch_seconds * 1e3:6.1f} ms, "
        f"objective {router.stitched_objective:.1f} vs single {ref_obj:.1f} "
        f"[{'IDENTICAL' if matches else 'MISMATCH'}]",
        flush=True,
    )
    return {
        "versions": versions,
        "total_ops": len(ops),
        "stitch_seconds": stitch_seconds,
        "stitched_objective": router.stitched_objective,
        "single_engine_objective": ref_obj,
        "stitch_matches_single_engine": matches,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes only (CI smoke run, < 60 s)",
    )
    parser.add_argument("--out", default=str(DEFAULT_OUT), help="JSON output path")
    args = parser.parse_args(argv)

    per_writer = SMOKE_WRITER_VERSIONS if args.smoke else FULL_WRITER_VERSIONS
    scale_versions = SMOKE_SCALE_VERSIONS if args.smoke else FULL_SCALE_VERSIONS
    stitch_versions = SMOKE_STITCH_VERSIONS if args.smoke else FULL_STITCH_VERSIONS

    contended = bench_contended(per_writer)
    scale = bench_scale(scale_versions)
    stitch = bench_stitch(stitch_versions)

    payload = {
        "seed": SEED,
        "num_shards": NUM_SHARDS,
        "problem": PROBLEM,
        "budget_factor": BUDGET_FACTOR,
        "staleness_threshold": STALENESS,
        "retire_every": RETIRE_EVERY,
        "smoke": args.smoke,
        "contended": contended,
        "scale": scale,
        "stitch": stitch,
        # top-level gate metrics (tracked by repro.bench.check)
        "throughput_speedup": contended["throughput_speedup"],
        "p99_latency_speedup": contended["p99_latency_speedup"],
        "p99_latency_flat": scale["p99_latency_flat"],
        "stitch_matches_single_engine": stitch["stitch_matches_single_engine"],
        "all_shard_plans_feasible": (
            contended["all_shard_plans_feasible"]
            and scale["all_shard_plans_feasible"]
        ),
        # the full tier must clear 2x; smoke graphs are too small for
        # re-solve stalls to dominate, so the smoke floor only catches
        # collapses (the committed smoke baseline gates the rest)
        "throughput_floor": 1.1 if args.smoke else 2.0,
    }
    Path(args.out).write_text(json.dumps(payload, indent=1, allow_nan=False))
    print(f"wrote {args.out}")

    failures = []
    if payload["throughput_speedup"] < payload["throughput_floor"]:
        failures.append(
            f"throughput speedup {payload['throughput_speedup']:.2f}x below "
            f"the {payload['throughput_floor']:.1f}x floor"
        )
    for key in (
        "p99_latency_flat",
        "stitch_matches_single_engine",
        "all_shard_plans_feasible",
    ):
        if not payload[key]:
            failures.append(f"{key} is False")
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
