"""Scatter/gather budget sweeps.

A Figure-10/13-style experiment evaluates solvers at many budgets on a
fixed graph.  The parallel axis is **solvers/graph-tasks, not budget
probes**: solvers with a trajectory-replay sweep registered in
:data:`repro.algorithms.registry.SWEEPS` (the LMG family for MSR,
``bmr-lmg`` for BMR) produce their entire budget series from one
recorded greedy run (:func:`repro.fastgraph.sweep_greedy`), so
splitting their grids into per-budget tasks would re-pay the solve
``B`` times and erase the single-pass win.  Each sweep-capable solver
therefore becomes ONE task covering the whole grid, while solvers
without a replayable trajectory (DP, ILP, MP and ``mp-local`` — MP's
Prim growth is budget-dependent at every relaxation, so its runs share
no prefix) still fan out one task per budget.

One entry point, ``sweep(graph, problem, solvers, budgets)``, serves
every problem family registered in
:data:`repro.core.problemspec.SPECS`.  Tasks carry the problem name,
so workers resolve solvers through the unified registry.

The graph is shipped to workers **once** through the initializer
(copy-on-write under fork, pickled once under spawn), with its
**compiled** :class:`~repro.fastgraph.CompiledGraph` cache warmed in
the parent first: the flat-array kernels never re-extend or re-index
per probe, and for families whose sweeps start from the
minimum-storage arborescence (MSR) the parent computes that tree once
(:func:`~repro.algorithms.registry.warm_sweep_start`).  The tree is
cached on the compiled graph, which travels with it, so no worker
runs Edmonds.

Trajectory-replay contract: each grid point's plan is identical to an
independent per-budget solve — while the recorded move stays feasible
under a tighter budget it is also the tighter run's first-maximum
choice, and past the first infeasible recorded move the sweep resumes
the live kernel on a cloned tree, sharing recorded continuations
across same-band budgets (see :mod:`repro.fastgraph.trajectory`).

Measured wall-clock times per probe are collected alongside objective
values so the harness can reproduce the paper's run-time panels; a
whole-grid sweep task records its one shared run time flat across its
grid points, like the paper's DP panels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..core.graph import VersionGraph
from ..core.problems import PlanScore, evaluate_plan
from ..core.problemspec import get_spec
from ..algorithms.registry import get_solver, get_sweep, warm_sweep_start
from .pool import parallel_map

__all__ = ["SweepPoint", "sweep"]

# worker-global state, set by the initializer (fork or spawn)
_WORKER_GRAPH: VersionGraph | None = None


def _init_worker(graph: VersionGraph) -> None:
    global _WORKER_GRAPH
    _WORKER_GRAPH = graph
    # Warm the compiled-graph cache once per worker; forked workers
    # inherit the parent's cache (and spawned workers the pickled one),
    # making this a no-op.
    graph.compile()


@dataclass(frozen=True)
class SweepPoint:
    """One (solver, budget) measurement."""

    solver: str
    budget: float
    score: PlanScore | None  # None when the budget is infeasible
    seconds: float

    @property
    def feasible(self) -> bool:
        """True when the budget admitted a plan."""
        return self.score is not None


def _run_task(task: tuple[str, str, list[float]]) -> list[SweepPoint]:
    """One task: a (problem, solver) pair plus the grid slice it covers."""
    problem, name, budgets = task
    graph = _WORKER_GRAPH
    assert graph is not None, "worker initializer did not run"
    grid_sweep = get_sweep(problem, name)
    if grid_sweep is not None:
        t0 = time.perf_counter()
        entries = grid_sweep(graph, budgets)
        dt = time.perf_counter() - t0
        return [
            SweepPoint(solver=name, budget=e.budget, score=e.score, seconds=dt)
            for e in entries
        ]
    solve = get_solver(problem, name)
    out = []
    for budget in budgets:
        t0 = time.perf_counter()
        plan = solve(graph, budget)
        dt = time.perf_counter() - t0
        score = None if plan is None else evaluate_plan(graph, plan)
        out.append(SweepPoint(solver=name, budget=budget, score=score, seconds=dt))
    return out


def sweep(
    graph: VersionGraph,
    problem: str,
    solvers: list[str],
    budgets: list[float],
    *,
    processes: int | None = None,
) -> list[SweepPoint]:
    """Evaluate each solver at each budget of ``problem`` (order kept).

    Sweep-capable solvers cover their whole grid in a single
    trajectory-replay task; the rest fan out per budget, all sharing
    one compiled graph (and, for families that use one, its cached
    sweep start tree).
    """
    spec = get_spec(problem)
    graph.compile()  # one compiled graph shared by all tasks
    warm_sweep_start(spec.name, graph, solvers)
    grid = [float(b) for b in budgets]
    tasks: list[tuple[str, str, list[float]]] = []
    for name in solvers:
        if get_sweep(spec.name, name) is not None:
            tasks.append((spec.name, name, grid))
        else:
            tasks.extend((spec.name, name, [b]) for b in grid)
    chunks = parallel_map(
        _run_task,
        tasks,
        processes=processes,
        # whole-grid tasks are few but heavy: let 2 tasks use 2 workers
        # instead of tripping the small-input serial fallback
        min_items_per_worker=1,
        initializer=_init_worker,
        initargs=(graph,),
    )
    return [pt for chunk in chunks for pt in chunk]
