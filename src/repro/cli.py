"""Command-line interface.

Examples
--------
Regenerate a paper figure::

    repro-versioning figure fig10 --dataset datasharing
    repro-versioning figure fig13 --dataset styleguide

Optimize a version graph stored as JSON::

    repro-versioning solve msr graph.json --budget 21000 --solver lmg-all
    repro-versioning solve bmr graph.json --budget 600 --solver dp-bmr

Sweep a whole budget grid in one pass (LMG-family solvers replay one
recorded greedy trajectory instead of re-solving per budget)::

    repro-versioning sweep msr graph.json --points 16 --format markdown
    repro-versioning sweep msr --dataset styleguide --scale 0.2 --out panel.json

Stream a repository through the online ingest engine (per-arrival plan
repair + staleness-bounded re-solves; ``--problem bmr`` serves under a
max-retrieval budget instead of a storage budget)::

    repro-versioning ingest --commits 500 --seed 7 --budget-factor 4
    repro-versioning ingest --commits 200 --budget 50000 --solver lmg-all \
        --staleness 0.05 --format markdown
    repro-versioning ingest --problem bmr --commits 200 --budget 900 \
        --solver mp-local
    repro-versioning ingest --problem bmr --commits 200 --budget-factor 3
    repro-versioning ingest --commits 400 --shards 4 --stitch-every 100

Inspect a dataset preset::

    repro-versioning dataset styleguide --scale 0.5

Notes
-----
* ``solve`` exits with code **1** and an ``infeasible:`` message on
  stderr when the budget does not admit any plan (MSR storage budget
  below the minimum storage configuration, or a negative BMR retrieval
  budget), whether the solver signals that by returning ``None`` or by
  raising ``ValueError``.  Exit code 2 is reserved for usage errors,
  including a NaN budget on any command and structural
  :class:`~repro.core.graph.GraphError` problems with the input graph
  (reported as ``error:`` on stderr).
* ``solve --backend`` picks the greedy implementation: ``array`` (the
  default — the flat-array kernels from :mod:`repro.fastgraph`) or
  ``dict`` (the reference implementation).  Both produce identical
  plans; solvers without an array variant ignore the flag.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from .core.graph import GraphError, VersionGraph
from .core.problemspec import SPECS
from .core.problems import evaluate_plan

__all__ = ["main"]


def _budget(text: str) -> float:
    """argparse ``type=`` for budgets: any float but NaN (``inf`` is unbounded)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"invalid budget {text!r}: not a number")
    return value


def _budget_list(text: str) -> list[float]:
    """argparse ``type=`` for a comma-separated budget grid."""
    return [_budget(b) for b in text.split(",")]


def _cmd_figure(args: argparse.Namespace) -> int:
    from . import bench

    fn = {
        "table4": lambda: bench.table4(),
        "fig10": lambda: bench.fig10(args.dataset or "datasharing"),
        "fig11": lambda: bench.fig11(args.dataset or "styleguide"),
        "fig12": lambda: bench.fig12(args.dataset or "LeetCode (0.2)"),
        "fig13": lambda: bench.fig13(args.dataset or "styleguide"),
        "theorem1": lambda: bench.theorem1(),
        "treewidth": lambda: bench.footnote7_treewidth(),
    }.get(args.name)
    if fn is None:
        print(f"unknown figure {args.name!r}", file=sys.stderr)
        return 2
    fn()
    return 0


def _usage_error(err: Exception) -> int:
    """Print ``err`` as an ``error:`` line and return the usage exit code.

    A ``KeyError`` prints its message, not its quoted ``str()``.
    """
    msg = err.args[0] if isinstance(err, KeyError) and err.args else err
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _load_graph(
    path: str | None, dataset: str | None = None, scale: float = 1.0
) -> VersionGraph:
    """Graph from a JSON file path, or a preset when ``dataset`` is
    given; raises OSError/KeyError/GraphError/ValueError on bad input."""
    if path is not None:
        return VersionGraph.from_json(Path(path).read_text())
    from .gen.presets import load_dataset

    return load_dataset(dataset, scale=scale)


def _cmd_solve(args: argparse.Namespace) -> int:
    from .algorithms.registry import get_solver

    try:
        graph = _load_graph(args.graph)
    except (OSError, GraphError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        solver = get_solver(args.problem, args.solver, backend=args.backend)
    except KeyError as err:
        return _usage_error(err)
    try:
        plan = solver(graph, args.budget)
    except GraphError as err:
        # structural/input problem (e.g. wrong graph shape for a DP
        # solver) — a usage error, not a budget outcome
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        # infeasible budget signalled by raising instead of None
        print(f"infeasible: {err}", file=sys.stderr)
        return 1
    if plan is None:
        print("infeasible: budget below the minimum achievable", file=sys.stderr)
        return 1
    score = evaluate_plan(graph, plan)
    print(
        json.dumps(
            {
                "problem": args.problem,
                "solver": args.solver,
                "budget": args.budget,
                "storage": score.storage,
                "sum_retrieval": score.sum_retrieval,
                "max_retrieval": score.max_retrieval,
                "materialized": sorted(map(str, plan.materialized)),
                "stored_deltas": sorted([list(map(str, e)) for e in plan.stored_deltas]),
            },
            indent=1,
        )
    )
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    from .gen.presets import load_dataset

    g = load_dataset(args.name, scale=args.scale, compressed=args.compressed)
    if args.out:
        Path(args.out).write_text(g.to_json())
        print(f"wrote {args.out}")
    print(json.dumps(g.stats(), indent=1))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .bench.harness import (
        ascii_plot,
        budget_grid,
        markdown_table,
        run_experiment,
    )
    from .core.problemspec import get_spec

    spec = get_spec(args.problem)
    if (args.graph is None) == (args.dataset is None):
        print("error: pass a graph JSON path or --dataset (not both)", file=sys.stderr)
        return 2
    try:
        graph = _load_graph(args.graph, args.dataset, args.scale)
    except (OSError, KeyError, GraphError, ValueError) as err:
        return _usage_error(err)

    default_solvers = ",".join(spec.default_panel_solvers)
    solvers = [
        s.strip() for s in (args.solvers or default_solvers).split(",") if s.strip()
    ]
    try:
        budgets = args.budgets or budget_grid(
            graph, spec.name, points=args.points, span=args.span
        )
    except ValueError as err:
        print(f"error: bad budget grid: {err}", file=sys.stderr)
        return 2

    try:
        result = run_experiment(
            graph, problem=spec.name, name="sweep", solvers=solvers, budgets=budgets
        )
    except KeyError as err:
        return _usage_error(err)

    # strict JSON: inf points are null; "problem"/"budget_kind" tell
    # downstream parsers whether budgets cap storage (MSR) or retrieval
    # (BMR)
    payload = result.to_json_dict()
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=1, allow_nan=False))
        print(f"wrote {args.out}", file=sys.stderr)
    if args.format in ("markdown", "both"):
        budget_label = f"{result.budget_kind} budget"

        def panel_table(series_map, label):
            headers = [budget_label] + [f"{s} ({label})" for s in solvers]
            rows = [
                [b] + [series_map[s].y[i] for s in solvers]
                for i, b in enumerate(budgets)
            ]
            return markdown_table(headers, rows)

        obj_label = spec.objective_label
        print(f"## {spec.name.upper()} sweep — {graph.name or 'graph'}\n")
        print(panel_table(result.objective, obj_label))
        print()
        print(panel_table(result.runtime, "s"))
        print()
        print(ascii_plot(result.objective, title=f"{spec.name.upper()} objective"))
    if args.format in ("json", "both"):
        print(json.dumps(payload, indent=1, allow_nan=False))
    return 0


def _run_sharded_ingest(args, repo, budget, budget_factor) -> int:
    """The ``ingest --shards N`` path: route arrivals across shard engines.

    Commits are diffed against their parents exactly like the
    single-engine path, then handed to a
    :class:`~repro.engine.sharded.ShardRouter`; a final cross-shard
    stitch produces the globally feasible plan the payload reports.
    """
    from .engine import ShardRouter
    from .vcs.build import snapshot_delta_bytes_pair

    try:
        router = ShardRouter(
            args.shards,
            problem=args.problem,
            solver=args.solver,
            budget=budget,
            budget_factor=budget_factor,
            staleness_threshold=args.staleness,
            background=args.background,
            stitch_interval=args.stitch_every,
            name=f"ingest-{args.seed}",
        )
    except (KeyError, ValueError) as err:
        return _usage_error(err)

    every = max(1, args.every)
    entries = []
    total_seconds = 0.0
    try:
        with router:
            for commit in repo.commits:
                deltas = []
                for p in commit.parents:
                    fwd, bwd = snapshot_delta_bytes_pair(
                        repo.commits[p].snapshot, commit.snapshot
                    )
                    deltas.append((p, commit.id, float(fwd), float(fwd)))
                    deltas.append((commit.id, p, float(bwd), float(bwd)))
                stats = router.ingest_version(
                    commit.id, float(commit.total_bytes()), deltas
                )
                total_seconds += stats.seconds
                if commit.id % every == 0 or commit.id == repo.num_commits - 1:
                    entry = dataclasses.asdict(stats)
                    entry["shard"] = router.shard_of(commit.id)
                    entries.append(entry)
            plan = router.stitch()
    except GraphError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return 1

    union = router.union_graph()
    payload = {
        "problem": router.spec.name,
        "mode": "online-sharded",
        "budget_kind": router.spec.budget_kind,
        "solver": router.solver_name,
        "commits": repo.num_commits,
        "seed": args.seed,
        "budget": budget,
        "budget_factor": budget_factor,
        "shards": args.shards,
        "stitch_every": args.stitch_every,
        "staleness_threshold": (
            None if args.staleness == float("inf") else args.staleness
        ),
        "background": args.background,
        "entries": entries,
        "summary": {
            "versions": union.num_versions,
            "deltas": union.num_deltas,
            "shard_versions": [s.graph.num_versions for s in router.shards],
            "resolves": sum(s.resolves for s in router.shards),
            "stitches": router.stitches,
            "stitched_objective": router.stitched_objective,
            "stitched_feasible": plan.is_feasible(union),
            "materialized": len(plan.materialized),
            "stored_deltas": len(plan.stored_deltas),
            "total_seconds": total_seconds,
            "mean_arrival_seconds": total_seconds / max(1, repo.num_commits),
        },
    }
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=1, allow_nan=False))
        print(f"wrote {args.out}", file=sys.stderr)
    if args.format in ("markdown", "both"):
        from .bench.harness import markdown_table

        headers = ["index", "shard", "storage", "retrieval", "staleness", "resolved"]
        rows = [
            [e["index"], e["shard"], e["storage"], e["retrieval"],
             round(e["staleness"], 6), e["resolved"]]
            for e in entries
        ]
        s = payload["summary"]
        print(
            f"## {router.spec.name.upper()} sharded ingest — "
            f"{args.shards} shards\n"
        )
        print(markdown_table(headers, rows))
        print()
        print(
            f"{s['versions']} versions, {s['deltas']} deltas, "
            f"{s['resolves']} shard re-solves, {s['stitches']} stitches, "
            f"stitched objective {s['stitched_objective']}"
        )
    if args.format in ("json", "both"):
        print(json.dumps(payload, indent=1, allow_nan=False))
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from .engine import IngestEngine
    from .vcs import random_repository

    if args.budget is not None and args.budget_factor is not None:
        print("error: pass --budget or --budget-factor, not both", file=sys.stderr)
        return 2
    if args.shards < 1:
        print(f"error: --shards must be >= 1, got {args.shards}", file=sys.stderr)
        return 2
    budget = args.budget
    budget_factor = args.budget_factor if budget is None else None
    if budget is None and budget_factor is None:
        # both families carry an online lower bound on their budget
        # scale; 4x it is a comfortable default for either
        budget_factor = 4.0

    repo = random_repository(
        args.commits,
        branch_prob=args.branch_prob,
        merge_prob=args.merge_prob,
        seed=args.seed,
    )
    if args.shards > 1:
        return _run_sharded_ingest(args, repo, budget, budget_factor)
    try:
        engine = IngestEngine(
            problem=args.problem,
            solver=args.solver,
            budget=budget,
            budget_factor=budget_factor,
            staleness_threshold=args.staleness,
            background=args.background,
            name=f"ingest-{args.seed}",
        )
    except KeyError as err:
        return _usage_error(err)

    every = max(1, args.every)
    entries = []
    total_seconds = 0.0
    try:
        for stats in engine.ingest_repository(repo):
            total_seconds += stats.seconds
            if stats.index % every == 0 or stats.index == repo.num_commits - 1:
                entries.append(dataclasses.asdict(stats))
        engine.wait()  # integrate any in-flight background re-solve
    except GraphError as err:
        # GraphError subclasses ValueError: structural problems must be
        # caught first to keep the exit-code contract (2, not 1)
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return 1

    g = engine.graph
    tree = engine.tree
    payload = {
        # "problem" + "budget_kind" distinguish the families for
        # downstream parsers: MSR budgets cap plan storage, BMR budgets
        # cap every version's retrieval cost — both derived from the
        # engine's ProblemSpec, never hand-maintained literals
        "problem": engine.spec.name,
        "mode": "online",
        "budget_kind": engine.spec.budget_kind,
        "solver": engine.solver_name,
        "commits": repo.num_commits,
        "seed": args.seed,
        "budget": budget,
        "budget_factor": budget_factor,
        "staleness_threshold": (
            None if args.staleness == float("inf") else args.staleness
        ),
        "background": args.background,
        "entries": entries,
        "summary": {
            "versions": g.num_versions,
            "deltas": g.num_deltas,
            "resolves": engine.resolves,
            "final_budget": engine.current_budget(),
            "final_storage": tree.total_storage,
            "final_retrieval": tree.total_retrieval,
            "final_max_retrieval": tree.max_retrieval(),
            "final_staleness": engine.staleness_bound,
            "total_seconds": total_seconds,
            "mean_arrival_seconds": total_seconds / max(1, repo.num_commits),
        },
    }
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=1, allow_nan=False))
        print(f"wrote {args.out}", file=sys.stderr)
    if args.format in ("markdown", "both"):
        from .bench.harness import markdown_table

        budget_label = f"{payload['budget_kind']} budget"
        headers = [
            "index",
            budget_label,
            "storage",
            "retrieval",
            "max retrieval",
            "staleness",
            "resolved",
        ]
        rows = [
            [e["index"], e["budget"], e["storage"], e["retrieval"],
             e["max_retrieval"], round(e["staleness"], 6), e["resolved"]]
            for e in entries
        ]
        s = payload["summary"]
        print(f"## {engine.spec.name.upper()} online ingest — {g.name or 'repo'}\n")
        print(markdown_table(headers, rows))
        print()
        print(
            f"{s['versions']} versions, {s['deltas']} deltas, "
            f"{s['resolves']} re-solves, "
            f"{s['mean_arrival_seconds'] * 1e3:.3f} ms/arrival"
        )
    if args.format in ("json", "both"):
        print(json.dumps(payload, indent=1, allow_nan=False))
    return 0


class _StoreUsageError(Exception):
    """Invalid store-command flag combination — a usage error (exit 2),
    distinct from ValueError so it is never reported as infeasible."""


def _resolve_store_budget(graph, spec, budget, budget_factor) -> float:
    """Fixed budget, or ``factor`` x the spec's lower bound on ``graph``."""
    if (budget is None) == (budget_factor is None):
        raise _StoreUsageError("pass exactly one of --budget / --budget-factor")
    if budget is not None:
        return float(budget)
    lb = spec.lower_bound_tracker()
    lb.rebuild(graph)
    return float(budget_factor) * lb.value()


def _store_solve(repo, problem: str, solver: str | None, budget, budget_factor):
    """Solve the repo's version graph; returns ``(plan, params dict)``.

    Raises ``ValueError`` when the budget is infeasible (plan is None).
    """
    from .algorithms.registry import get_solver
    from .core.problemspec import get_spec
    from .vcs import build_graph_from_repo

    spec = get_spec(problem)
    solver = solver or spec.default_engine_solver
    graph = build_graph_from_repo(repo)
    resolved = _resolve_store_budget(graph, spec, budget, budget_factor)
    plan = get_solver(spec.name, solver)(graph, resolved)
    if plan is None:
        raise ValueError(
            f"{spec.budget_kind} budget {resolved:g} is below the minimum achievable"
        )
    return plan, {
        "problem": spec.name,
        "solver": solver,
        "budget": resolved,
        "budget_kind": spec.budget_kind,
    }


def _store_summary(store, repo) -> dict:
    """The JSON panel emitted by ``store materialize`` / ``migrate``."""
    raw = sum(c.total_bytes() for c in repo.commits)
    stored = store.total_bytes()
    versions = store.versions
    return {
        "versions": len(versions),
        "materialized": sum(1 for v in versions if store.is_materialized(v)),
        "delta_edges": sum(1 for v in versions if not store.is_materialized(v)),
        "objects": store.objects.count(),
        "stored_bytes": stored,
        "raw_bytes": raw,
        "dedup_ratio": raw / stored if stored else None,
        "max_chain_depth": max(
            (store.chain_depth(v) for v in versions), default=0
        ),
    }


def _store_repo_from_source(source: dict):
    """Regenerate the deterministic repository a store was built from."""
    from .vcs import random_repository

    return random_repository(
        source["commits"],
        branch_prob=source["branch_prob"],
        merge_prob=source["merge_prob"],
        seed=source["seed"],
    )


def _cmd_store(args: argparse.Namespace) -> int:
    from .store import MaterializationStore, StoreError

    try:
        if args.store_command == "materialize":
            store = MaterializationStore.open(args.dir)
            if store.versions:
                print(
                    "error: store already holds a plan; use `store migrate`",
                    file=sys.stderr,
                )
                return 2
            from .vcs import random_repository

            repo = random_repository(
                args.commits,
                branch_prob=args.branch_prob,
                merge_prob=args.merge_prob,
                seed=args.seed,
            )
            plan, params = _store_solve(
                repo, args.problem, args.solver, args.budget, args.budget_factor
            )
            store.materialize(repo, plan)
            store.source = {
                "commits": args.commits,
                "seed": args.seed,
                "branch_prob": args.branch_prob,
                "merge_prob": args.merge_prob,
                **params,
            }
            store.flush()
            print(json.dumps(
                {"source": store.source, **_store_summary(store, repo)},
                indent=1,
            ))
            return 0

        store = MaterializationStore.open(args.dir)
        if args.store_command == "fsck":
            findings = store.fsck()
            print(json.dumps(
                {
                    "clean": not findings,
                    "findings": [dataclasses.asdict(f) for f in findings],
                },
                indent=1,
            ))
            return 1 if findings else 0

        if args.store_command == "checkout":
            snap = store.checkout(args.version)
            total = sum(
                len(p.encode()) + sum(len(ln.encode()) + 1 for ln in lines)
                for p, lines in snap.items()
            )
            if args.out:
                out_dir = Path(args.out).resolve()
                for path, lines in snap.items():
                    # Manifest paths come from the store's own records;
                    # a tampered store must not escape the output dir.
                    target = (out_dir / path).resolve()
                    if Path(path).is_absolute() or not target.is_relative_to(
                        out_dir
                    ):
                        raise StoreError(
                            f"refusing to write outside {out_dir}: {path!r}"
                        )
                    target.parent.mkdir(parents=True, exist_ok=True)
                    target.write_text("".join(ln + "\n" for ln in lines))
                print(f"wrote {len(snap)} files to {args.out}", file=sys.stderr)
            print(json.dumps(
                {
                    "version": args.version,
                    "digest": store.digest(args.version),
                    "chain_depth": store.chain_depth(args.version),
                    "files": len(snap),
                    "bytes": total,
                },
                indent=1,
            ))
            return 0

        # migrate: re-solve the recorded instance under new parameters
        if store.source is None:
            print(
                "error: store has no recorded source; only stores built by "
                "`store materialize` can migrate via the CLI",
                file=sys.stderr,
            )
            return 2
        source = store.source
        repo = _store_repo_from_source(source)
        budget, factor = args.budget, args.budget_factor
        if budget is None and factor is None:
            budget = source["budget"]
        plan, params = _store_solve(
            repo,
            args.problem or source["problem"],
            args.solver or source["solver"],
            budget,
            factor,
        )
        report = store.sync(plan)
        store.source = {**source, **params}
        store.flush()
        print(json.dumps(
            {
                "source": store.source,
                "edges_written": report.edges_written,
                "edges_deleted": report.edges_deleted,
                "edges_rewritten": report.edges_rewritten,
                "objects_written": report.objects_written,
                "objects_deleted": report.objects_deleted,
                **_store_summary(store, repo),
            },
            indent=1,
        ))
        return 0
    except (OSError, GraphError, StoreError, KeyError, _StoreUsageError) as err:
        return _usage_error(err)
    except ValueError as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return 1


def _cmd_bench_check(args: argparse.Namespace) -> int:
    from .bench.check import main as check_main

    argv: list[str] = list(args.candidates)
    argv += ["--baseline-dir", args.baseline_dir, "--margin", str(args.margin)]
    if args.baseline is not None:
        argv += ["--baseline", args.baseline]
    return check_main(argv)


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import main as lint_main

    argv: list[str] = list(args.paths)
    argv += ["--format", args.format]
    if args.select:
        argv += ["--select", args.select]
    if args.list_rules:
        argv.append("--list-rules")
    return lint_main(argv)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-versioning",
        description="Dataset-versioning storage/retrieval optimization "
        "(reproduction of Guo et al., IPPS 2024).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figure", help="regenerate a paper table/figure")
    p_fig.add_argument("name", help="table4|fig10|fig11|fig12|fig13|theorem1|treewidth")
    p_fig.add_argument("--dataset", default=None)
    p_fig.set_defaults(func=_cmd_figure)

    p_solve = sub.add_parser("solve", help="optimize a version graph JSON file")
    p_solve.add_argument("problem", choices=sorted(SPECS))
    p_solve.add_argument("graph", help="path to VersionGraph JSON")
    p_solve.add_argument("--budget", type=_budget, required=True)
    p_solve.add_argument(
        "--solver",
        default="lmg-all",
        help="msr: lmg | lmg-all | dp-msr | ilp; "
        "bmr: mp | mp-local | bmr-lmg | dp-bmr | ilp (default lmg-all)",
    )
    p_solve.add_argument(
        "--backend",
        choices=["array", "dict"],
        default=None,
        help="greedy solver backend (default: the fastgraph array kernels)",
    )
    p_solve.set_defaults(func=_cmd_solve)

    p_data = sub.add_parser("dataset", help="build a dataset preset")
    p_data.add_argument("name")
    p_data.add_argument("--scale", type=float, default=1.0)
    p_data.add_argument("--compressed", action="store_true")
    p_data.add_argument("--out", default=None)
    p_data.set_defaults(func=_cmd_dataset)

    p_sweep = sub.add_parser(
        "sweep",
        help="evaluate solvers over a whole budget grid in one pass",
        description=(
            "Evaluate solvers over a budget grid and emit the JSON/Markdown "
            "panel.  Single-run amortization: DP-MSR reads one frontier at "
            "every budget, and the LMG greedy family replays one recorded "
            "move trajectory across the grid (plan-identical to independent "
            "per-budget solves; see repro.fastgraph.trajectory).  MP and ILP "
            "run once per budget."
        ),
    )
    p_sweep.add_argument("problem", choices=sorted(SPECS))
    p_sweep.add_argument("graph", nargs="?", default=None, help="path to VersionGraph JSON")
    p_sweep.add_argument("--dataset", default=None, help="preset name instead of a JSON file")
    p_sweep.add_argument("--scale", type=float, default=1.0, help="preset scale (with --dataset)")
    p_sweep.add_argument(
        "--solvers",
        default=None,
        help="comma-separated solver names "
        "(default: lmg,lmg-all,dp-msr for msr; mp,dp-bmr for bmr)",
    )
    p_sweep.add_argument(
        "--budgets",
        type=_budget_list,
        default=None,
        help="comma-separated explicit budget grid (default: auto grid)",
    )
    p_sweep.add_argument(
        "--points", type=int, default=16, help="auto-grid size (default 16)"
    )
    p_sweep.add_argument(
        "--span",
        type=float,
        default=None,
        help="auto-grid span factor (default: 4 for msr, 6 for bmr, "
        "matching the harness grids)",
    )
    p_sweep.add_argument(
        "--format",
        choices=["json", "markdown", "both"],
        default="json",
        help="panel rendering (default json)",
    )
    p_sweep.add_argument("--out", default=None, help="also write the JSON panel here")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_ing = sub.add_parser(
        "ingest",
        help="stream commits through the online ingest engine",
        description=(
            "Generate a simulated repository and stream its commits through "
            "repro.engine.IngestEngine: each arrival is diffed against its "
            "parents only, appended to the incrementally compiled graph, and "
            "greedily attached to the live plan; a staleness bound triggers "
            "full re-solves.  --problem msr keeps storage within the budget "
            "(objective: total retrieval); --problem bmr keeps every "
            "version's retrieval within the budget (objective: storage).  "
            "Emits per-arrival plan stats as a strict-JSON panel (like "
            "`sweep`) or a Markdown table."
        ),
    )
    p_ing.add_argument(
        "--problem",
        choices=sorted(SPECS),
        default="msr",
        help="budget family: msr = storage budget, bmr = max-retrieval "
        "budget (default msr)",
    )
    p_ing.add_argument(
        "--commits", type=int, default=200, help="repository size (default 200)"
    )
    p_ing.add_argument("--seed", type=int, default=0, help="repository seed")
    p_ing.add_argument(
        "--branch-prob", type=float, default=0.12, help="branching probability"
    )
    p_ing.add_argument(
        "--merge-prob", type=float, default=0.06, help="merge probability"
    )
    p_ing.add_argument(
        "--budget",
        type=_budget,
        default=None,
        help="fixed budget (total storage for msr, max retrieval for bmr)",
    )
    p_ing.add_argument(
        "--budget-factor",
        type=_budget,
        default=None,
        help="dynamic budget = factor x the problem's online lower bound "
        "(min-storage bound for msr, retrieval-scale bound for bmr; "
        "default 4.0 when --budget is not given)",
    )
    p_ing.add_argument(
        "--solver",
        default=None,
        help="engine solver (msr: lmg | lmg-all, default lmg; "
        "bmr: mp | mp-local | bmr-lmg, default mp-local)",
    )
    p_ing.add_argument(
        "--staleness",
        type=float,
        default=0.1,
        help="staleness-bound re-solve threshold (default 0.1; inf disables)",
    )
    p_ing.add_argument(
        "--background",
        action="store_true",
        help="run threshold re-solves on a background thread",
    )
    p_ing.add_argument(
        "--shards",
        type=int,
        default=1,
        help="partition the stream across N shard engines and stitch a "
        "global plan at the end (default 1 = single engine)",
    )
    p_ing.add_argument(
        "--stitch-every",
        type=int,
        default=None,
        help="with --shards > 1: also re-stitch the global plan every "
        "K arrivals (default: only the final stitch)",
    )
    p_ing.add_argument(
        "--every",
        type=int,
        default=1,
        help="emit every K-th arrival in the panel (default 1 = all)",
    )
    p_ing.add_argument(
        "--format",
        choices=["json", "markdown", "both"],
        default="json",
        help="panel rendering (default json)",
    )
    p_ing.add_argument("--out", default=None, help="also write the JSON panel here")
    p_ing.set_defaults(func=_cmd_ingest)

    p_bc = sub.add_parser(
        "bench-check",
        help="gate bench payloads against committed baselines",
        description=(
            "Compare fresh BENCH_*.json payloads against the committed "
            "baselines (benchmarks/baselines by default, matched by file "
            "name) and fail on regressions of the tracked metrics: speedup "
            "ratios within a noise margin, gate booleans exactly.  Exit 0 "
            "when clean, 1 on a regression, 2 on missing metrics or bad "
            "input.  See docs/benchmarks.md."
        ),
    )
    p_bc.add_argument("candidates", nargs="+", help="fresh BENCH_*.json files")
    p_bc.add_argument(
        "--baseline-dir",
        default="benchmarks/baselines",
        help="committed baseline directory (default benchmarks/baselines)",
    )
    p_bc.add_argument(
        "--baseline", default=None, help="explicit baseline file (one candidate)"
    )
    p_bc.add_argument(
        "--margin",
        type=float,
        default=0.5,
        help="relative noise margin for speedup ratios (default 0.5)",
    )
    p_bc.set_defaults(func=_cmd_bench_check)

    p_store = sub.add_parser(
        "store",
        help="execute a storage plan against a content-addressed store",
        description=(
            "Materialize a solved plan into an on-disk content-addressed "
            "store, check versions back out byte-identically, migrate the "
            "store to a re-solved plan rewriting only changed edges, and "
            "verify integrity with fsck.  See docs/storage.md."
        ),
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)

    ps_mat = store_sub.add_parser(
        "materialize",
        help="generate a repo, solve it, and materialize the plan",
    )
    ps_mat.add_argument("--dir", required=True, help="store directory")
    ps_mat.add_argument(
        "--commits", type=int, default=100, help="repository size (default 100)"
    )
    ps_mat.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    ps_mat.add_argument(
        "--branch-prob", type=float, default=0.15, help="branch probability"
    )
    ps_mat.add_argument(
        "--merge-prob", type=float, default=0.05, help="merge probability"
    )
    ps_mat.add_argument(
        "--problem", choices=sorted(SPECS), default="msr", help="problem family"
    )
    ps_mat.add_argument(
        "--solver", default=None, help="solver name (default: the spec's engine solver)"
    )
    ps_mat.add_argument("--budget", type=_budget, default=None, help="absolute budget")
    ps_mat.add_argument(
        "--budget-factor",
        type=_budget,
        default=None,
        help="budget as a multiple of the spec's lower bound",
    )
    ps_mat.set_defaults(func=_cmd_store)

    ps_co = store_sub.add_parser(
        "checkout", help="reconstruct one version byte-identically"
    )
    ps_co.add_argument("--dir", required=True, help="store directory")
    ps_co.add_argument("--version", type=int, required=True, help="version id")
    ps_co.add_argument("--out", default=None, help="write the files into this directory")
    ps_co.set_defaults(func=_cmd_store)

    ps_mig = store_sub.add_parser(
        "migrate",
        help="re-solve the recorded instance and rewrite only changed edges",
    )
    ps_mig.add_argument("--dir", required=True, help="store directory")
    ps_mig.add_argument(
        "--problem",
        choices=sorted(SPECS),
        default=None,
        help="switch problem family (default: keep the recorded one)",
    )
    ps_mig.add_argument(
        "--solver", default=None, help="switch solver (default: keep the recorded one)"
    )
    ps_mig.add_argument("--budget", type=_budget, default=None, help="absolute budget")
    ps_mig.add_argument(
        "--budget-factor",
        type=_budget,
        default=None,
        help="budget as a multiple of the spec's lower bound",
    )
    ps_mig.set_defaults(func=_cmd_store)

    ps_fsck = store_sub.add_parser(
        "fsck", help="verify every object hash and replay every delta chain"
    )
    ps_fsck.add_argument("--dir", required=True, help="store directory")
    ps_fsck.set_defaults(func=_cmd_store)

    p_lint = sub.add_parser(
        "lint",
        help="run the repo's AST invariant linter",
        description=(
            "Run repro.analysis over the given paths (default src/repro): "
            "tolerance-discipline, spec-routing, registry-discipline, "
            "layering and lock-discipline.  Exit 0 when clean, 1 on "
            "findings.  See docs/static_analysis.md."
        ),
    )
    p_lint.add_argument(
        "paths", nargs="*", default=[], help="files or directories (default src/repro)"
    )
    p_lint.add_argument(
        "--format", choices=["text", "json"], default="text", help="report format"
    )
    p_lint.add_argument(
        "--select", default=None, help="comma-separated rule names (default: all)"
    )
    p_lint.add_argument(
        "--list-rules", action="store_true", help="list registered rules and exit"
    )
    p_lint.set_defaults(func=_cmd_lint)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
