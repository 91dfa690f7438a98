"""Experiment harness: sweeps, series, reports.

Every Section-7 artifact is a set of *series* — objective (log scale)
against a constraint grid, per algorithm — plus run-time panels.  This
module runs the sweeps and renders results as Markdown tables and ASCII
log-plots so benchmark output is self-contained in the terminal and in
``results/*.json``.

Single-run sweep amortization
-----------------------------
Two solver classes produce their whole budget series from **one** run,
both registered per ``(problem, name)``:

* DP-style solvers (:data:`SINGLE_RUN_PANELS`: ``dp-msr``'s frontier
  is read at every budget — "the DP algorithm returns a whole spectrum
  of solutions at once", exactly as the paper does — and ``dp-bmr``
  reuses one extracted tree index across budgets);
* greedy solvers with a trajectory sweep in
  :data:`repro.algorithms.registry.SWEEPS` replay one recorded run
  across the grid through the unified
  :func:`repro.fastgraph.sweep_greedy` engine — valid because the
  greedy move sequence is budget-monotone, with band-shared live
  continuations on divergence, so each grid point's plan is identical
  to an independent solve at that budget.  The MP family has no
  replayable trajectory (its Prim growth is budget-dependent at every
  relaxation) and keeps per-budget runs.

For single-run families the run-time series records the one shared
wall-clock time, shown flat across the grid, as in the paper's panels.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core.graph import VersionGraph
from ..core.problems import evaluate_plan
from ..core.problemspec import get_spec
from ..core.tolerance import within_budget_recomputed
from ..algorithms.dp_bmr import extract_index
from ..algorithms.dp_msr import DPMSRSolver
from ..algorithms.ilp import msr_ilp
from ..algorithms.registry import get_solver, get_sweep, warm_sweep_start
from ..algorithms.arborescence import min_storage_plan_tree

__all__ = [
    "Series",
    "ExperimentResult",
    "budget_grid",
    "msr_budget_grid",
    "bmr_budget_grid",
    "run_experiment",
    "run_msr_experiment",
    "run_bmr_experiment",
    "ascii_plot",
    "markdown_table",
    "results_dir",
    "timed",
]


@dataclass
class Series:
    """One labeled line of a figure: x (budgets) vs y (objective)."""

    label: str
    x: list[float] = field(default_factory=list)
    y: list[float] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        """Append one ``(x, y)`` measurement."""
        self.x.append(float(x))
        self.y.append(float(y))

    def finite(self) -> "Series":
        """Copy with non-finite (infeasible) points dropped."""
        pts = [(a, b) for a, b in zip(self.x, self.y) if math.isfinite(b)]
        return Series(self.label, [a for a, _ in pts], [b for _, b in pts])


@dataclass
class ExperimentResult:
    """All series of one panel plus metadata for EXPERIMENTS.md."""

    name: str
    dataset: str
    problem: str = ""  # "msr" | "bmr" (set by the run_* entry points)
    objective: dict[str, Series] = field(default_factory=dict)
    runtime: dict[str, Series] = field(default_factory=dict)
    notes: dict[str, float | str] = field(default_factory=dict)

    @property
    def budget_kind(self) -> str:
        """What the x-axis budgets constrain, from the problem's spec
        (storage for the MSR family, retrieval for the BMR family);
        empty when the problem is unset."""
        from ..core.problemspec import SPECS

        spec = SPECS.get(self.problem)
        return spec.budget_kind if spec is not None else ""

    def to_json_dict(self) -> dict:
        """Strict-JSON payload: non-finite values (infeasible grid
        points, infinite budgets) become ``None``, since ``json.dumps``
        would emit the non-RFC ``Infinity`` literal that jq/JSON.parse
        reject.  ``problem`` / ``budget_kind`` let downstream parsers
        distinguish the MSR family (storage budgets) from the BMR
        family (retrieval budgets)."""

        def series(s: Series) -> dict:
            safe = lambda vals: [v if math.isfinite(v) else None for v in vals]  # noqa: E731
            return {"x": safe(s.x), "y": safe(s.y)}

        return {
            "name": self.name,
            "dataset": self.dataset,
            "problem": self.problem,
            "budget_kind": self.budget_kind,
            "objective": {k: series(s) for k, s in self.objective.items()},
            "runtime": {k: series(s) for k, s in self.runtime.items()},
            "notes": self.notes,
        }

    def save(self, directory: Path | None = None) -> Path:
        """Write the JSON payload under ``results/``; returns the path."""
        directory = directory or results_dir()
        directory.mkdir(parents=True, exist_ok=True)
        safe = f"{self.name}_{self.dataset}".replace(" ", "_").replace("(", "").replace(")", "")
        path = directory / f"{safe}.json"
        path.write_text(json.dumps(self.to_json_dict(), indent=1, allow_nan=False))
        return path


def timed(fn, *args, **kwargs) -> tuple[float, object]:
    """Call ``fn(*args, **kwargs)``; return ``(wall seconds, result)``.

    Shared by the harness and the benchmark scripts, so a timed region
    is exactly one call between one ``perf_counter`` pair.
    """
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def results_dir() -> Path:
    """The repository-level ``results/`` directory."""
    return Path(__file__).resolve().parents[3] / "results"


def msr_budget_grid(
    graph: VersionGraph, points: int = 7, span: float = 4.0
) -> list[float]:
    """Storage budgets from just-feasible to ``span`` × minimum storage,
    capped at the materialize-everything cost (the useful range)."""
    base = min_storage_plan_tree(graph).total_storage
    hi = min(base * span, graph.total_version_storage() * 1.0)
    hi = max(hi, base * 1.05)
    return list(np.geomspace(base * 1.02, hi, points))


def bmr_budget_grid(
    graph: VersionGraph, points: int = 7, span: float = 6.0
) -> list[float]:
    """Retrieval budgets from zero to ``span`` × the costliest delta:
    a zero point (materialize everything) plus a geometric ramp."""
    hi = graph.max_retrieval_cost() * span
    return [0.0] + list(np.geomspace(max(hi / 64, 1.0), hi, points - 1))


#: Problem name -> grid builder.  A new problem family registers its
#: budget-grid policy here (the spec carries the default span).
GRID_BUILDERS = {"msr": msr_budget_grid, "bmr": bmr_budget_grid}


def budget_grid(
    graph: VersionGraph,
    problem: str,
    *,
    points: int = 7,
    span: float | None = None,
) -> list[float]:
    """Build ``problem``'s default budget grid for ``graph``.

    Dispatches to the family's registered builder
    (:data:`GRID_BUILDERS`); ``span`` defaults to the spec's
    ``default_grid_span`` (4× minimum storage for MSR, 6× the
    costliest delta for BMR).
    """
    spec = get_spec(problem)
    if span is None:
        span = spec.default_grid_span
    return GRID_BUILDERS[spec.name](graph, points=points, span=span)


def _bmr_ilp_panel(graph, budget, *, time_limit, mip_rel_gap):
    """BMR OPT panel adapter (the multicommodity ILP has no gap knob)."""
    from ..algorithms.ilp import bmr_ilp

    return bmr_ilp(graph, budget, time_limit=time_limit)


#: Problem name -> ILP panel runner for ``include_ilp``; a new family
#: registers its OPT series here (or leaves it out, in which case
#: ``include_ilp`` raises instead of silently skipping).
_ILP_PANELS = {"msr": msr_ilp, "bmr": _bmr_ilp_panel}


def _dp_msr_series(graph, budgets, ctx):
    """Single-run DP-MSR panel: one frontier, read at every budget."""
    t0 = time.perf_counter()
    frontier = DPMSRSolver(graph, ticks=ctx["dp_ticks"]).frontier()
    dt = time.perf_counter() - t0
    ys = [frontier.best_retrieval_within(b) for b in budgets]
    return ys, [dt] * len(budgets)


def _dp_bmr_series(graph, budgets, ctx):
    """Shared-index DP-BMR panel: one extracted tree index, reused
    across per-budget DP runs (the paper's O(n²) amortization)."""
    from ..algorithms.dp_bmr import dp_bmr_heuristic

    spec, index = ctx["spec"], ctx["dp_bmr_index"]
    ys, ts = [], []
    for b in budgets:
        dt, res = timed(dp_bmr_heuristic, graph, b, index=index)
        ts.append(dt)
        plan = res.plan
        if plan is None:  # infeasible retrieval budget
            ys.append(math.inf)
            continue
        score = evaluate_plan(graph, plan)
        assert within_budget_recomputed(spec.score_constrained(score), b)
        ys.append(spec.score_objective(score))
    return ys, ts


#: ``(problem, name)`` -> single-run panel adapter ``f(graph, budgets,
#: ctx) -> (objective_ys, seconds)`` for solvers that amortize one
#: expensive precomputation across the whole grid without a trajectory
#: sweep.  A new family's DP-style solver registers here; the shared
#: ``run_experiment`` loop stays branch-free.
SINGLE_RUN_PANELS = {
    ("msr", "dp-msr"): _dp_msr_series,
    ("bmr", "dp-bmr"): _dp_bmr_series,
}


def run_experiment(
    graph: VersionGraph,
    *,
    problem: str,
    name: str,
    solvers: list[str] | None = None,
    budgets: list[float] | None = None,
    dp_ticks: int = 96,
    include_ilp: bool = False,
    ilp_time_limit: float = 10.0,
    ilp_rel_gap: float = 0.003,
) -> ExperimentResult:
    """One Figure-10/11/12/13-style panel for any problem family.

    Single-run amortization applies per solver, not per problem:
    ``dp-msr`` runs **once** and its frontier is read at every budget,
    ``dp-bmr`` reuses a single extracted tree index across budgets,
    and every solver with a registered trajectory-replay sweep runs
    **once** per grid (plan-identical to per-budget solves — see the
    module docstring).  Single-run solvers record their one run time
    flat across the grid, as in the paper.  Everything else runs once
    per budget.  Objective extraction and the feasibility
    double-checks route through the family's
    :class:`~repro.core.problemspec.ProblemSpec`; ``include_ilp`` adds
    a time-limited OPT series via the family's registered ILP panel
    and raises for families without one.
    """
    spec = get_spec(problem)
    solvers = list(solvers) if solvers is not None else list(spec.default_panel_solvers)
    budgets = list(budgets) if budgets else budget_grid(graph, spec.name)
    result = ExperimentResult(name=name, dataset=graph.name, problem=spec.name)
    # the shared sweep start tree (MSR's Edmonds run, cached on the
    # compiled graph) is part of producing every greedy series, so its
    # cost folds into each sweep solver's flat runtime below
    start_dt, _ = timed(warm_sweep_start, spec.name, graph, solvers)
    needs_index = (spec.name, "dp-bmr") in SINGLE_RUN_PANELS and "dp-bmr" in solvers
    ctx = {
        "spec": spec,
        "dp_ticks": dp_ticks,
        "dp_bmr_index": extract_index(graph) if needs_index else None,
    }

    def check_and_extract(score, b: float) -> float:
        """Spec-routed objective, with the constrained-side re-check."""
        assert within_budget_recomputed(spec.score_constrained(score), b)
        return spec.score_objective(score)

    for solver_name in solvers:
        obj = Series(solver_name)
        rt = Series(solver_name)
        grid_sweep = get_sweep(spec.name, solver_name)
        single = SINGLE_RUN_PANELS.get((spec.name, solver_name))
        if grid_sweep is None:
            # validate the name against the family up front — a
            # cross-family name (e.g. dp-msr on a BMR panel) must fail
            # with the registry's hinting KeyError, never produce a
            # silently wrong series
            get_solver(spec.name, solver_name)
        if single is not None:
            ys, ts = single(graph, list(budgets), ctx)
            for b, y, dt in zip(budgets, ys, ts):
                obj.add(b, y)
                rt.add(b, dt)
        elif grid_sweep is not None:
            dt, entries = timed(grid_sweep, graph, list(budgets))
            dt += start_dt
            for e in entries:
                y = math.inf if e.score is None else check_and_extract(e.score, e.budget)
                obj.add(e.budget, y)
                rt.add(e.budget, dt)
        else:
            fn = get_solver(spec.name, solver_name)
            for b in budgets:
                dt, plan = timed(fn, graph, b)
                if plan is None:  # infeasible budget for this family
                    obj.add(b, math.inf)
                    rt.add(b, dt)
                    continue
                obj.add(b, check_and_extract(evaluate_plan(graph, plan), b))
                rt.add(b, dt)
        result.objective[solver_name] = obj
        result.runtime[solver_name] = rt

    ilp_panel = None
    if include_ilp:
        ilp_panel = _ILP_PANELS.get(spec.name)
        if ilp_panel is None:
            raise ValueError(
                f"include_ilp: no ILP panel registered for {spec.name!r}; "
                f"options: {sorted(_ILP_PANELS)}"
            )
    if ilp_panel is not None:
        obj = Series("opt-ilp")
        rt = Series("opt-ilp")
        for b in budgets:
            dt, res = timed(
                ilp_panel, graph, b, time_limit=ilp_time_limit, mip_rel_gap=ilp_rel_gap
            )
            y = math.inf if res.plan is None else spec.score_objective(res.score)
            obj.add(b, y)
            rt.add(b, dt)
        result.objective["opt-ilp"] = obj
        result.runtime["opt-ilp"] = rt

    if spec.budget_kind == "storage":
        result.notes["min_storage"] = min_storage_plan_tree(graph).total_storage
    result.notes["nodes"] = graph.num_versions
    result.notes["edges"] = graph.num_deltas
    return result


def run_msr_experiment(
    graph: VersionGraph,
    *,
    name: str,
    solvers: list[str] = ("lmg", "lmg-all", "dp-msr"),
    budgets: list[float] | None = None,
    dp_ticks: int = 96,
    include_ilp: bool = False,
    ilp_time_limit: float = 10.0,
    ilp_rel_gap: float = 0.003,
) -> ExperimentResult:
    """One Figure-10/11/12 panel: :func:`run_experiment` for MSR."""
    return run_experiment(
        graph,
        problem="msr",
        name=name,
        solvers=solvers,
        budgets=budgets,
        dp_ticks=dp_ticks,
        include_ilp=include_ilp,
        ilp_time_limit=ilp_time_limit,
        ilp_rel_gap=ilp_rel_gap,
    )


def run_bmr_experiment(
    graph: VersionGraph,
    *,
    name: str,
    solvers: list[str] = ("mp", "dp-bmr"),
    budgets: list[float] | None = None,
) -> ExperimentResult:
    """One Figure-13 panel: :func:`run_experiment` for BMR."""
    return run_experiment(
        graph, problem="bmr", name=name, solvers=solvers, budgets=budgets
    )


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def ascii_plot(
    series_map: dict[str, Series],
    *,
    title: str = "",
    width: int = 68,
    height: int = 14,
    log_y: bool = True,
) -> str:
    """Log-scale ASCII line chart, one marker per series (paper figures
    are log-scale line charts; this is their terminal rendering)."""
    markers = "ox+*#@%&"
    finite = {k: s.finite() for k, s in series_map.items()}
    finite = {k: s for k, s in finite.items() if s.x}
    if not finite:
        return f"{title}\n(no finite data)"
    xs = [x for s in finite.values() for x in s.x]
    ys = [max(y, 1e-12) for s in finite.values() for y in s.y]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if log_y:
        y_lo, y_hi = math.log10(y_lo), math.log10(max(y_hi, y_lo * (1 + 1e-9)))
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi == y_lo:
        y_hi = y_lo + 1
    grid = [[" "] * width for _ in range(height)]
    for (label, s), marker in zip(sorted(finite.items()), markers):
        for x, y in zip(s.x, s.y):
            yy = math.log10(max(y, 1e-12)) if log_y else y
            col = int((x - x_lo) / (x_hi - x_lo) * (width - 1))
            row = int((yy - y_lo) / (y_hi - y_lo) * (height - 1))
            grid[height - 1 - row][col] = marker
    legend = "  ".join(
        f"{m}={label}" for (label, _), m in zip(sorted(finite.items()), markers)
    )
    lines = [title, legend] if title else [legend]
    top = f"{(10 ** y_hi if log_y else y_hi):.3g}"
    bot = f"{(10 ** y_lo if log_y else y_lo):.3g}"
    lines.append(f"y: {bot} .. {top} (log)" if log_y else f"y: {bot} .. {top}")
    lines.extend("|" + "".join(row) + "|" for row in grid)
    lines.append(f"x: {x_lo:.3g} .. {x_hi:.3g}")
    return "\n".join(lines)


def markdown_table(headers: list[str], rows: list[list]) -> str:
    """Render rows as a GitHub-flavored Markdown table."""
    def fmt(x) -> str:
        if isinstance(x, float):
            return f"{x:.4g}"
        return str(x)

    out = ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
    out.extend("| " + " | ".join(fmt(c) for c in row) + " |" for row in rows)
    return "\n".join(out)
