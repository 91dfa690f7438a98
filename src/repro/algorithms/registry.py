"""Solver registry: ``(problem, name)`` -> budgeted solver callables.

Benchmarks, the CLI, the ingest engine and the parallel sweep workers
all address solvers by name, so the mapping lives in one place, keyed
by ``(problem, name)`` with ``problem in repro.core.problemspec.SPECS``:

* :data:`SOLVERS` — plan-level solvers
  ``f(graph, budget) -> StoragePlan | None`` (None = the budget is
  infeasible for the family: below the minimum achievable storage for
  MSR, negative retrieval for BMR);
* :data:`SWEEPS` — whole-grid trajectory-replay sweeps
  ``f(graph, budgets) -> list[SweepEntry]`` (one
  solver run for the entire budget grid; only greedy solvers with
  budget-monotone trajectories qualify);
* :data:`ENGINE_KERNELS` — tree-level kernels
  ``f(compiled_graph, budget) -> ArrayPlanTree`` for the online ingest
  engine (only kernels that run directly on a
  :class:`~repro.fastgraph.CompiledGraph` qualify; DP/ILP solvers have
  no array-tree form and are deliberately absent);
* :data:`BACKENDS` — explicit backend requests for the greedy family
  (``"array"`` kernels and the ``"dict"`` reference implementations).

Every greedy solver is written down once, in ``_GREEDY`` (its array
kernel and its dict reference); the other tables derive from it, and
:data:`SWEEPS` derives from
:data:`repro.fastgraph.trajectory.TRAJECTORY_SOLVERS`.

Resolution goes through :func:`get_solver`, :func:`get_sweep` and
:func:`get_engine_solver`, all taking the problem name first.  Plain
names resolve to the **array** backend automatically (it is
plan-identical and much faster); pass ``backend="dict"`` to
:func:`get_solver` to keep the reference path, e.g. for
cross-validation::

    fast = get_solver("msr", "lmg")                  # array kernel
    ref = get_solver("msr", "lmg", backend="dict")   # reference path

Solvers without an array variant accept both backend names and resolve
to their single implementation.  The DP entries rebuild their tree
index per call; sweep code that wants index reuse calls the solver
classes directly (see :mod:`repro.bench.figures`).  The array kernels
reuse the compiled graph cached on the :class:`VersionGraph` itself
(``graph.compile()``), so repeated calls on one graph compile once.
"""

from __future__ import annotations

from functools import partial

from ..core.graph import GraphError, VersionGraph
from ..core.problemspec import SPECS, get_spec
from ..core.solution import StoragePlan
from ..fastgraph import (
    TRAJECTORY_SOLVERS,
    bmr_lmg_array,
    lmg_all_array,
    lmg_array,
    mp_array,
    mp_local_array,
    sweep_greedy,
)
from .bmr_greedy import bmr_lmg, mp_local
from .dp_bmr import dp_bmr_heuristic
from .dp_msr import dp_msr
from .ilp import bmr_ilp, msr_ilp
from .lmg import lmg
from .lmg_all import lmg_all
from .mp import mp

__all__ = [
    "SOLVERS",
    "SWEEPS",
    "ENGINE_KERNELS",
    "BACKENDS",
    "get_solver",
    "get_sweep",
    "get_engine_solver",
    "warm_sweep_start",
]

#: ``(problem, name)`` -> ``(array kernel, dict reference kernel)`` for
#: the greedy family.  Both return a plan tree and raise ``ValueError``
#: on an infeasible budget.
_GREEDY = {
    ("msr", "lmg"): (lmg_array, lmg),
    ("msr", "lmg-all"): (lmg_all_array, lmg_all),
    ("bmr", "mp"): (mp_array, mp),
    ("bmr", "mp-local"): (mp_local_array, mp_local),
    ("bmr", "bmr-lmg"): (bmr_lmg_array, bmr_lmg),
}


def _plan(kernel, graph: VersionGraph, budget: float) -> StoragePlan | None:
    """Run a tree kernel as a plan-level solver (``ValueError`` -> None)."""
    try:
        return kernel(graph, budget).to_plan()
    except ValueError:
        return None


def _dp_msr(graph: VersionGraph, budget: float) -> StoragePlan | None:
    try:
        return dp_msr(graph, budget).plan
    except GraphError:
        return None


def _msr_ilp(graph: VersionGraph, budget: float) -> StoragePlan | None:
    return msr_ilp(graph, budget).plan


def _dp_bmr(graph: VersionGraph, budget: float) -> StoragePlan | None:
    try:
        return dp_bmr_heuristic(graph, budget).plan
    except GraphError:
        raise  # structural input problem, not a budget outcome
    except ValueError:
        return None


def _bmr_ilp(graph: VersionGraph, budget: float) -> StoragePlan | None:
    return bmr_ilp(graph, budget).plan


def _sweep(problem: str, name: str, graph, budgets):
    """Run the trajectory-replay sweep of one greedy solver."""
    return sweep_greedy(graph, problem, name, budgets)


#: ``(problem, name)`` -> backend -> plan-level solver, for explicit
#: backend requests (greedy family only); solvers without an entry
#: resolve to their default.
BACKENDS = {
    key: {"array": partial(_plan, array), "dict": partial(_plan, ref)}
    for key, (array, ref) in _GREEDY.items()
}

#: ``(problem, name)`` -> plan-level solver; greedy names resolve to
#: the array kernels.
SOLVERS = {
    **{key: backends["array"] for key, backends in BACKENDS.items()},
    ("msr", "dp-msr"): _dp_msr,
    ("msr", "ilp"): _msr_ilp,
    ("bmr", "dp-bmr"): _dp_bmr,
    ("bmr", "ilp"): _bmr_ilp,
}

#: ``(problem, name)`` -> whole-grid trajectory-replay sweep
#: ``f(graph, budgets) -> list[SweepEntry]``, one per solver the replay
#: engine supports (the LMG family and ``bmr-lmg``).  The MP family is
#: absent by design: MP's Prim growth depends on the retrieval budget
#: at every relaxation, so runs at different budgets share no prefix
#: (see :mod:`repro.fastgraph.trajectory`).
SWEEPS = {key: partial(_sweep, *key) for key in TRAJECTORY_SOLVERS}

#: ``(problem, name)`` -> tree-level engine kernel
#: ``f(compiled_graph, budget) -> ArrayPlanTree``.  The ingest engine
#: (:mod:`repro.engine`) needs the *tree*, not the exported
#: :class:`StoragePlan`: between full re-solves it keeps attaching
#: arriving versions onto the live ``ArrayPlanTree``, and the
#: incremental attach / staleness bookkeeping work on the flat arrays.
ENGINE_KERNELS = {key: array for key, (array, _ref) in _GREEDY.items()}

_BACKEND_NAMES = ("array", "dict")


def _names(table: dict, problem: str) -> list[str]:
    """Sorted solver names registered for ``problem`` in ``table``."""
    return sorted(n for p, n in table if p == problem)


def _other_problem(problem: str) -> str | None:
    """The one other registered family, or None with >2 families."""
    others = [p for p in SPECS if p != problem]
    return others[0] if len(others) == 1 else None


def get_solver(problem: str, name: str, backend: str | None = None):
    """Look up a plan-level solver for ``problem`` by ``name``.

    ``backend`` picks ``"array"`` or ``"dict"`` for the greedy family;
    solvers without that variant resolve to their default
    implementation.  Raises ``ValueError`` for unknown problems and
    ``KeyError`` — with a cross-family hint when the name belongs to
    the other family — for unknown solver names or backends.
    """
    problem = get_spec(problem).name
    if (problem, name) not in SOLVERS:
        other = _other_problem(problem)
        hint = (
            f" ({name!r} is a {other.upper()} solver; "
            f"use get_solver({other!r}, {name!r}))"
            if other is not None and (other, name) in SOLVERS
            else ""
        )
        raise KeyError(
            f"unknown {problem.upper()} solver {name!r}; "
            f"options: {_names(SOLVERS, problem)}{hint}"
        )
    if backend is None:
        return SOLVERS[(problem, name)]
    if backend not in _BACKEND_NAMES:
        raise KeyError(
            f"unknown backend {backend!r}; options: {sorted(_BACKEND_NAMES)}"
        )
    return BACKENDS.get((problem, name), {}).get(backend, SOLVERS[(problem, name)])


def get_sweep(problem: str, name: str):
    """Whole-grid sweep for ``(problem, name)``, or ``None``.

    ``None`` means the solver has no trajectory-replay sweep and must
    be probed per budget (DP, ILP, the MP family).
    """
    problem = get_spec(problem).name
    return SWEEPS.get((problem, name))


def get_engine_solver(problem: str, name: str):
    """Tree-level solver for the ingest engine: ``(problem, name)``.

    Raises ``ValueError`` for unknown problems and ``KeyError`` with
    the valid options for unknown or non-engine-capable solver names.
    """
    if problem not in SPECS:
        raise ValueError(
            f"unknown engine problem {problem!r}; options: {sorted(SPECS)}"
        )
    try:
        return ENGINE_KERNELS[(problem, name)]
    except KeyError:
        other = _other_problem(problem)
        hint = (
            f" ({name!r} is a {other.upper()} engine solver)"
            if other is not None and (other, name) in ENGINE_KERNELS
            else ""
        )
        raise KeyError(
            f"unknown {problem.upper()} engine solver {name!r}; "
            f"options: {_names(ENGINE_KERNELS, problem)}{hint}"
        ) from None


def warm_sweep_start(problem: str, graph: VersionGraph, solvers) -> None:
    """Compute the start tree a problem's trajectory sweeps share.

    The minimum-storage arborescence is cached on ``graph.compile()``,
    so every later sweep of the panel — and every pool worker handed
    the pickled graph — starts from it without another Edmonds run.
    A no-op unless the family's sweeps start from that tree and at
    least one requested solver has a trajectory sweep (BMR's
    all-materialized start needs no Edmonds run).
    """
    spec = get_spec(problem)
    if not spec.sweep_uses_start_tree:
        return
    if not any(get_sweep(spec.name, s) is not None for s in solvers):
        return
    from ..fastgraph.arborescence import min_storage_parent_edges

    min_storage_parent_edges(graph.compile())
