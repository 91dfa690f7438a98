"""Single-pass greedy budget sweeps via trajectory replay.

A Figure-10/13-style panel evaluates a greedy solver on a whole grid
of budgets.  Re-running the solver per budget re-derives the same
start tree and replays the same greedy prefix ``O(B)`` times.  This
module turns that ``O(B · solve)`` sweep into ``O(solve + B)`` for
**both** problem families through one engine, :func:`sweep_greedy`,
parameterized by a :class:`~repro.core.problemspec.ProblemSpec`:

1. **Record** — run the solver once at the loosest grid budget,
   logging every applied move as ``(edge id, feasibility value,
   objective value)``.  The feasibility value is exactly the quantity
   the live kernel checked against its budget — plan storage after the
   move for the MSR family, the moved subtree's post-move max
   retrieval for the BMR family — supplied per spec, so replay
   admission (:meth:`ProblemSpec.replay_feasible`) is bit-equal to a
   fresh run's own check.
2. **Replay** — walk the grid in ascending budget order, applying
   recorded moves onto one shared tree while they stay feasible; each
   exact grid point's plan is emitted straight from the shared tree.
3. **Diverge** — when the next recorded move overshoots the current
   budget, the run at that budget may settle for a different move.
   All grid budgets that diverge *at the same recorded position* form
   a **band**: the loosest band member forks an O(V)
   :meth:`ArrayPlanTree.clone` and resumes the live kernel, recording
   its continuation; the tighter band members then replay **that**
   recorded continuation recursively instead of re-running live moves
   from the shared prefix.  This divergence-continuation sharing is
   what lifts LMG-All's sweep speedup toward LMG's: on dense grids the
   expensive live rounds run once per band, not once per grid point.

Why replay is valid
-------------------
The greedy move sequence is budget-monotone.  At any state, the set of
feasible moves under a tighter budget is a subset of the set under a
looser one, and both runs pick the scan-order-first maximum of the
same ranking key.  Hence while the looser run's chosen move remains
feasible under the tighter budget, it is *also* the tighter run's
first maximum — the tighter run's plan follows the looser run's
trajectory up to the first recorded move that exceeds the tighter
budget.  From there the tighter run is an ordinary greedy run from the
shared state, which is exactly the same record/replay problem one
level down: the band's loosest budget records it live, and the band's
tighter budgets replay that recording.  Every emitted plan is
*identical by construction* to an independent solve at its budget,
enforced by ``tests/test_sweep_trajectory.py`` and
``tests/test_sweep_continuation.py``.

Every run of one family starts from the same budget-independent tree:
the minimum-storage arborescence for MSR (computed once per
:class:`CompiledGraph` and cached on it, so every sweep of a panel and
every pool worker handed the pickled graph reuses one Edmonds run) and
the all-materialized plan for BMR.

MP is excluded: Modified Prim's grows a tree from scratch whose
*structure* depends on the retrieval budget at every relaxation, so
its runs at different budgets share no prefix trajectory.  MP sweeps
amortize the compiled graph instead (see :mod:`repro.parallel.sweep`).
``mp-local`` inherits MP's exclusion (its start tree is MP's).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.graph import VersionGraph
from ..core.problems import PlanScore, evaluate_plan
from ..core.problemspec import ProblemSpec, get_spec
from ..core.solution import StoragePlan
from .compiled import CompiledGraph
from .plantree import ArrayPlanTree
from .solvers import (
    _bmr_default_rounds,
    _bmr_run,
    _compiled,
    _lmg_all_default_rounds,
    _lmg_all_run,
    _lmg_candidates,
    _lmg_default_rounds,
    _lmg_run,
    _materialized_array_tree,
    _min_storage_array_tree,
)

__all__ = [
    "SweepEntry",
    "sweep_greedy",
    "TRAJECTORY_SOLVERS",
]


@dataclass(frozen=True)
class SweepEntry:
    """One grid point of a greedy budget sweep.

    ``plan``/``score`` are ``None`` when the budget is infeasible for
    the whole family (below the minimum storage configuration for MSR,
    negative for BMR), matching the registry solvers'
    ``None``-on-infeasible contract.  ``replayed`` is True when the
    plan was served entirely from recorded trajectories (the main
    recording or a shared divergence continuation); False means a live
    kernel continuation had to apply at least one new move for this
    specific budget.
    """

    budget: float
    plan: StoragePlan | None
    score: PlanScore | None
    replayed: bool

    @property
    def feasible(self) -> bool:
        """True when the budget admitted a plan."""
        return self.plan is not None


def _run_lmg(cg, tree, budget, rounds, record) -> None:
    """Resumable LMG rounds (candidates derived from the tree state)."""
    _lmg_run(cg, tree, _lmg_candidates(cg, tree), budget, rounds, record)


@dataclass(frozen=True)
class _TrajectoryFamily:
    """How one greedy solver plugs into the replay engine.

    ``start`` builds the budget-independent start tree, ``run`` resumes
    the live kernel from any tree state (recording applied moves), and
    ``rounds`` caps the total greedy rounds exactly like a fresh run.
    """

    start: object  # (cg) -> ArrayPlanTree
    run: object  # (cg, tree, budget, rounds, record) -> None
    rounds: object  # (cg) -> int


#: ``(problem, solver)`` -> replay adapter, for every greedy solver
#: whose trajectory is budget-monotone.  The MP family is absent by
#: design (see the module docstring).
TRAJECTORY_SOLVERS = {
    ("msr", "lmg"): _TrajectoryFamily(
        _min_storage_array_tree, _run_lmg, _lmg_default_rounds
    ),
    ("msr", "lmg-all"): _TrajectoryFamily(
        _min_storage_array_tree, _lmg_all_run, _lmg_all_default_rounds
    ),
    ("bmr", "bmr-lmg"): _TrajectoryFamily(
        _materialized_array_tree, _bmr_run, _bmr_default_rounds
    ),
}


def sweep_greedy(
    graph: VersionGraph | CompiledGraph,
    problem: str | ProblemSpec,
    solver: str,
    budgets: list[float],
) -> list[SweepEntry]:
    """Evaluate ``solver`` at every budget of ``problem`` in one run.

    Parameters
    ----------
    graph:
        A :class:`VersionGraph` (compiled through the cached hook) or a
        pre-built :class:`CompiledGraph`.
    problem:
        Problem family name (``"msr"`` / ``"bmr"``) or a
        :class:`~repro.core.problemspec.ProblemSpec`.
    solver:
        A solver registered in :data:`TRAJECTORY_SOLVERS` for the
        family.
    budgets:
        Budgets (storage for MSR, max retrieval for BMR), any order,
        duplicates allowed.  Results come back in the same order.

    Every entry's plan is identical (parent map, storage, retrieval) to
    an independent solver run at that budget; diverged grid points
    share recorded continuations per divergence band (see the module
    docstring).
    """
    spec = get_spec(problem)
    try:
        family = TRAJECTORY_SOLVERS[(spec.name, solver)]
    except KeyError:
        options = sorted(n for p, n in TRAJECTORY_SOLVERS if p == spec.name)
        raise KeyError(
            f"unknown {spec.name.upper()} sweep solver {solver!r}; "
            f"options: {options}"
        ) from None
    cg = _compiled(graph)
    score_graph = graph if isinstance(graph, VersionGraph) else cg.graph

    base = family.start(cg)
    floor = spec.sweep_floor(base)
    results: list[SweepEntry | None] = [None] * len(budgets)
    feasible_ix = []
    for i, b in enumerate(budgets):
        if spec.replay_feasible(floor, b):
            feasible_ix.append(i)
        else:
            results[i] = SweepEntry(
                budget=float(b), plan=None, score=None, replayed=False
            )
    if not feasible_ix:
        return [e for e in results if e is not None]

    # one full solver run at the loosest budget, recording every move
    loosest = max(budgets[i] for i in feasible_ix)
    rec_tree = base.clone()
    total_rounds = family.rounds(cg)
    steps: list[tuple[int, float, float]] = []
    family.run(cg, rec_tree, loosest, total_rounds, steps)

    def emit(i: int, tree: ArrayPlanTree, replayed: bool) -> None:
        plan = tree.to_plan()
        results[i] = SweepEntry(
            budget=float(budgets[i]),
            plan=plan,
            score=evaluate_plan(score_graph, plan),
            replayed=replayed,
        )

    halts = spec.replay_halts_on_budget

    def solve_points(
        tree: ArrayPlanTree,
        start_value: float,
        recorded: list[tuple[int, float, float]],
        used_rounds: int,
        ixs: list[int],
        enqueue,
    ) -> None:
        """Serve grid indices ``ixs`` (ascending budgets) from ``tree``.

        ``tree`` is the shared state where ``recorded`` starts and is
        mutated forward; divergence positions are non-decreasing in the
        budget, so both the shared tree and the scan cursor only ever
        move forward (the whole replay of one recording is O(len
        (recorded) + len(ixs)), never a per-budget rescan).  Diverged
        indices are grouped into same-position bands; each band's
        loosest member records a live continuation that the tighter
        members replay via a work item handed to ``enqueue``.
        """
        # scan cursor over ``recorded``: positions are non-decreasing
        # in the budget, so each budget resumes where the previous one
        # stopped.  ``before`` is the constrained accumulator at the
        # cursor — for halting families it is the feasibility value
        # recorded at the previous step (bit-equal to the live tree's,
        # because replay applies identical moves in identical order).
        scan_pos = 0
        scan_before = start_value

        def position(b: float) -> tuple[int, bool]:
            """Where a fresh run at ``b`` departs from ``recorded``.

            Returns ``(pos, exact)``: ``exact`` means the fresh run
            simply stops at ``pos`` (budget halt, or trajectory
            exhausted) and the replayed prefix *is* its plan; otherwise
            the recorded move at ``pos`` is infeasible at ``b`` and the
            run diverges there.  Advances the shared cursor: a looser
            budget can neither halt nor go infeasible before a tighter
            one did, so restarting the scan is never needed.
            """
            nonlocal scan_pos, scan_before
            while scan_pos < len(recorded):
                if halts and scan_before >= b:
                    return scan_pos, True
                feas = recorded[scan_pos][1]
                if not spec.replay_feasible(feas, b):
                    return scan_pos, False
                scan_before = feas
                scan_pos += 1
            return len(recorded), True

        pos = 0
        k = 0
        while k < len(ixs):
            i = ixs[k]
            p, exact = position(budgets[i])
            while pos < p:
                tree.apply_swap_edge(recorded[pos][0])
                pos += 1
            if exact:
                emit(i, tree, replayed=True)
                k += 1
                continue
            band = [i]
            k += 1
            while k < len(ixs):
                pj, exj = position(budgets[ixs[k]])
                if exj or pj != p:
                    break
                band.append(ixs[k])
                k += 1
            # the loosest band member resumes the live kernel on a fork,
            # recording its continuation for the tighter members
            fork = tree.clone()
            continuation: list[tuple[int, float, float]] = []
            family.run(
                cg,
                fork,
                budgets[band[-1]],
                max(0, total_rounds - (used_rounds + p)),
                continuation,
            )
            emit(band[-1], fork, replayed=not continuation)
            if len(band) > 1:
                enqueue(
                    (
                        tree.clone(),
                        spec.sweep_floor(tree) if halts else start_value,
                        continuation,
                        used_rounds + p,
                        band[:-1],
                    )
                )

    # Band work items are independent of each other and of the frame
    # that spawned them (each carries its own cloned tree), so nested
    # sub-divergence is drained from an explicit worklist instead of
    # recursion — a dense grid cannot hit the interpreter's recursion
    # limit no matter how deep bands nest.
    ordered = sorted(feasible_ix, key=lambda i: budgets[i])
    work = [(base, floor, steps, 0, ordered)]
    while work:
        frame = work.pop()
        solve_points(*frame, enqueue=work.append)
    return [e for e in results if e is not None]
