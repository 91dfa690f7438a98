"""XL scaling tier: the incremental greedy kernels at 1k-100k versions.

Where ``bench_fastgraph_scaling.py`` times the array kernels against
the *dict* reference (and therefore tops out at a few thousand
versions), this tier times the incremental array kernels of
:mod:`repro.fastgraph.solvers` alone, at the sizes they exist for.
Three panels per tier, written to ``BENCH_xl.json`` at the repository
root::

    PYTHONPATH=src python benchmarks/bench_scaling_xl.py          # 1k + 20k + 100k
    PYTHONPATH=src python benchmarks/bench_scaling_xl.py --smoke  # CI, < 60 s

* **solve** — LMG / LMG-All / BMR-LMG round runners, timed from the
  compiled graph's cached min-storage start (the all-materialized
  start for BMR).  Edmonds runs once per tier, fresh on the tier's
  compiled graph: its wall time is reported as ``edmonds_seconds``
  (not gated) and its contraction rounds as ``edmonds_rounds``, a work
  counter gated exactly at the top level; so is ``bmr_lmg_rounds``, the
  BMR-LMG moves applied at that tier.  At tiers up to
  ``DICT_CHECK_CAP`` versions every plan is checked against the dict
  reference solver (``plans_identical``); above it the dict solvers
  are priced out and the flag is ``null``.
* **sweep** — a budget-grid LMG sweep via trajectory replay from the
  same cached start (absolute seconds, untracked).
* **ingest** — online append throughput: new versions folded into the
  compiled arrays through the mutation-event path (untracked).

The 100k tier skips everything Edmonds-priced: it runs the BMR family
(O(V) materialized start) with capped rounds plus the ingest panel,
proving capability at scale.  Gating happens on the smoke variant: CI
runs ``--smoke`` (writing ``BENCH_xl_smoke.json``) and feeds it to
``repro-versioning bench-check`` against the committed baseline — see
docs/benchmarks.md.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.algorithms.bmr_greedy import bmr_lmg
from repro.algorithms.lmg import lmg
from repro.algorithms.lmg_all import lmg_all
from repro.bench import timed
from repro.fastgraph import sweep_greedy
from repro.fastgraph.arborescence import edmonds_rounds, min_storage_parent_edges
from repro.fastgraph.solvers import (
    _bmr_default_rounds,
    _bmr_run,
    _lmg_all_default_rounds,
    _lmg_all_run,
    _lmg_candidates,
    _lmg_default_rounds,
    _lmg_run,
    _materialized_array_tree,
    _min_storage_array_tree,
)
from repro.gen.presets import PRESETS

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUT = REPO_ROOT / "BENCH_xl.json"

#: Natural preset used for scaling (bidirectional branch/merge history).
PRESET = "996.ICU"

FULL_SIZES = (1000, 20000, 100000)
SMOKE_SIZES = (1000,)

#: The Edmonds start and uncapped greedy runs are priced out above
#: this size; larger tiers run capability panels only.
SOLVE_CAP = 20000

#: The dict reference solvers (O(V·E)-ish) are priced out above this
#: size; larger tiers report ``plans_identical: null``.
DICT_CHECK_CAP = 1000

#: Move cap for the capability tiers (full BMR rounds at 100k versions
#: would apply ~100k moves; the panel only needs a stable rate sample).
CAPABILITY_ROUNDS = 20000

#: Versions appended by the ingest panel.
INGEST_APPENDS = 2000


def _build(nodes: int):
    preset = PRESETS[PRESET]
    return preset.build(scale=nodes / preset.n_commits)


def solve_panel(graph, cg) -> list[dict]:
    """The three incremental greedy kernels, checked against the dict
    reference at tiers up to ``DICT_CHECK_CAP`` versions."""
    base = _min_storage_array_tree(cg).total_storage
    budget = base * 2.0
    # materialized retrieval is 0 everywhere (stored-in-full versions
    # reconstruct for free), so the cap must come from the delta edges:
    # twice the worst single-delta retrieval admits real chains while
    # still rejecting most deep ones, keeping the greedy loop busy
    retrieval_budget = float(cg.edge_retrieval.max()) * 2.0
    # LMG gets a work-representative budget: 10% of the way from the
    # minimum-storage start to full materialization.  A small multiple
    # of the start admits only a handful of moves at this scale, which
    # times kernel setup instead of the greedy loop.
    full_storage = float(cg.edge_storage[cg.aux_edge].sum())
    lmg_budget = base + 0.1 * (full_storage - base)

    cases = [
        (
            "lmg",
            _min_storage_array_tree,
            lambda t: _lmg_run(
                cg, t, _lmg_candidates(cg, t), lmg_budget, _lmg_default_rounds(cg)
            ),
            lmg,
            lmg_budget,
        ),
        (
            "lmg-all",
            _min_storage_array_tree,
            lambda t: _lmg_all_run(cg, t, budget, _lmg_all_default_rounds(cg)),
            lmg_all,
            budget,
        ),
        (
            "bmr-lmg",
            _materialized_array_tree,
            lambda t: _bmr_run(cg, t, retrieval_budget, _bmr_default_rounds(cg)),
            bmr_lmg,
            retrieval_budget,
        ),
    ]
    rows = []
    for name, start, run, reference, b in cases:
        tree = start(cg)
        secs, out = timed(run, tree)
        identical = None
        if cg.n <= DICT_CHECK_CAP:
            identical = reference(graph, b).parent == tree.parent_map()
        row = {
            "solver": name,
            "budget": b,
            "incremental_seconds": secs,
            "plans_identical": identical,
            "storage": tree.total_storage,
            "retrieval": tree.total_retrieval,
        }
        if name == "bmr-lmg":
            row["moves_applied"] = int(out)  # _bmr_run returns moves applied
        rows.append(row)
        status = {True: "OK", False: "PLAN MISMATCH", None: "unchecked"}[identical]
        print(f"  solve   {name:<8} {secs:8.2f}s [{status}]", flush=True)
    return rows


def sweep_panel(cg) -> dict:
    """Budget-grid LMG sweep through trajectory replay."""
    base = _min_storage_array_tree(cg).total_storage
    budgets = [base * f for f in (1.05, 1.2, 1.4, 1.7, 2.0, 2.5, 3.0, 4.0)]
    secs, entries = timed(sweep_greedy, cg, "msr", "lmg", budgets)
    print(f"  sweep   lmg x{len(budgets)} budgets in {secs:8.2f}s", flush=True)
    return {
        "solver": "lmg",
        "points": len(budgets),
        "sweep_seconds": secs,
        "monotone_storage": all(
            a.score is not None
            and b.score is not None
            and a.score.storage <= b.score.storage + 1e-9
            for a, b in zip(entries, entries[1:])
        ),
    }


def capability_panel(cg) -> dict:
    """Capped BMR run for tiers too large for the Edmonds start."""
    tree = _materialized_array_tree(cg)
    retrieval_budget = float(cg.edge_retrieval.max()) * 2.0
    rounds = min(CAPABILITY_ROUNDS, _bmr_default_rounds(cg))
    secs, applied = timed(_bmr_run, cg, tree, retrieval_budget, rounds)
    print(
        f"  bmr-cap {applied} moves in {secs:8.2f}s "
        f"({applied / secs if secs > 0 else 0.0:,.0f} moves/s)",
        flush=True,
    )
    return {
        "solver": "bmr-lmg",
        "rounds_cap": rounds,
        "moves_applied": int(applied),
        "seconds": secs,
        "moves_per_second": applied / secs if secs > 0 else None,
        "storage": tree.total_storage,
    }


def ingest_panel(graph, appends: int) -> dict:
    """Online append throughput through the compiled mutation path."""
    graph.compile()
    prev = next(iter(graph.versions))  # chain the appends off one tip
    t0 = time.perf_counter()
    for i in range(appends):
        v = f"xl-ingest-{i}"
        graph.add_version(v, 10.0)
        graph.add_delta(prev, v, 3.0, 1.0)
        prev = v
    cg = graph.compile()  # folds the pending appends into the arrays
    secs = time.perf_counter() - t0
    print(
        f"  ingest  {appends} appends in {secs:8.2f}s "
        f"({appends / secs if secs > 0 else 0.0:,.0f}/s)",
        flush=True,
    )
    return {
        "appends": appends,
        "seconds": secs,
        "appends_per_second": appends / secs if secs > 0 else None,
        "versions_after": cg.n,
    }


def bench_tier(nodes: int) -> dict:
    g = _build(nodes)
    cg = g.compile()
    print(f"{PRESET} n={cg.n} m={cg.num_edges} (index {cg.index_dtype})", flush=True)
    tier: dict = {
        "nodes": cg.n,
        "edges": cg.num_edges,
        "index_dtype": str(np.dtype(cg.index_dtype)),
    }
    if nodes <= SOLVE_CAP:
        ed_s, _ = timed(min_storage_parent_edges, cg)
        tier["edmonds_seconds"] = ed_s
        tier["edmonds_rounds"] = edmonds_rounds(cg)
        print(
            f"  edmonds start in {ed_s:8.2f}s "
            f"({tier['edmonds_rounds']} rounds)",
            flush=True,
        )
        tier["solve"] = solve_panel(g, cg)
        tier["sweep"] = sweep_panel(cg)
    else:
        tier["capability"] = capability_panel(cg)
    tier["ingest"] = ingest_panel(g, INGEST_APPENDS)
    return tier


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one small tier only (CI smoke run, < 60 s); writes "
        "BENCH_xl_smoke.json unless --out is given",
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="*",
        default=None,
        help="explicit tier sizes (overrides --smoke)",
    )
    parser.add_argument("--out", default=None, help="JSON output path")
    args = parser.parse_args(argv)

    sizes = args.sizes or (SMOKE_SIZES if args.smoke else FULL_SIZES)
    out = args.out or str(
        REPO_ROOT / ("BENCH_xl_smoke.json" if args.smoke else "BENCH_xl.json")
    )

    tiers = [bench_tier(n) for n in sizes]

    # gate metrics come from the largest tier that ran the solve panel;
    # the identity flag covers every dict-checked row (null if none ran)
    solved = [t for t in tiers if "solve" in t]
    payload: dict = {"preset": PRESET, "sizes": list(sizes), "tiers": tiers}
    if solved:
        top = max(solved, key=lambda t: t["nodes"])
        checked = [
            r["plans_identical"]
            for t in solved
            for r in t["solve"]
            if r["plans_identical"] is not None
        ]
        payload["gate_nodes"] = top["nodes"]
        payload["edmonds_rounds"] = top["edmonds_rounds"]
        payload["bmr_lmg_rounds"] = next(
            r["moves_applied"] for r in top["solve"] if r["solver"] == "bmr-lmg"
        )
        payload["all_plans_identical"] = all(checked) if checked else None
    Path(out).write_text(json.dumps(payload, indent=1))
    print(f"wrote {out}")
    if payload.get("all_plans_identical") is False:
        print("FAIL: incremental/dict plan mismatch", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
