"""Tests for the ingest engine's BMR mode (retrieval-budget serving).

The ISSUE-4 acceptance bar, pinned here:

* the engine's post-re-solve plan is *identical* to a from-scratch BMR
  solve on the final graph;
* every per-arrival plan satisfies the max-retrieval budget, checked
  through the shared :mod:`repro.core.tolerance` helpers.
"""

import pytest

from repro.algorithms.registry import get_engine_solver
from repro.core.tolerance import within_budget, within_budget_recomputed
from repro.engine import IngestEngine
from repro.fastgraph import mp_local_array
# shared instance/budget helpers live in tests/helpers.py (see conftest)
from helpers import cached_repo, repo_graph_budget


class TestBMREngineEquivalence:
    @pytest.mark.parametrize("solver", ["mp", "mp-local", "bmr-lmg"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_post_resolve_plan_identical_to_batch(self, solver, seed):
        repo, batch, budget = repo_graph_budget(60, seed=seed, problem="bmr")
        engine = IngestEngine(
            problem="bmr", budget=budget, solver=solver, staleness_threshold=0.1
        )
        for stats in engine.ingest_repository(repo):
            assert within_budget(stats.max_retrieval, budget)
        tree = engine.resolve()
        ref = get_engine_solver("bmr", solver)(batch.compile(), budget)
        assert tree.to_plan() == ref.to_plan()
        assert tree.total_storage == ref.total_storage
        assert tree.total_retrieval == ref.total_retrieval

    def test_every_arrival_plan_feasible_in_pure_repair_mode(self):
        repo, _, budget = repo_graph_budget(50, seed=6, problem="bmr")
        engine = IngestEngine(
            problem="bmr", budget=budget, staleness_threshold=float("inf")
        )
        for stats in engine.ingest_repository(repo):
            assert within_budget(stats.max_retrieval, budget)
        # only the bootstrap solve happened; the cached totals and the
        # exported plan must still be exact and feasible
        assert engine.resolves == 1
        engine.graph.compile()
        engine.tree.check_invariants()
        score_max = engine.plan().retrieval(engine.graph).maximum
        assert within_budget_recomputed(score_max, budget)

    def test_background_engine_converges_to_batch_plan(self):
        repo, batch, budget = repo_graph_budget(60, seed=13, problem="bmr")
        engine = IngestEngine(
            problem="bmr",
            budget=budget,
            staleness_threshold=0.02,
            background=True,
        )
        for stats in engine.ingest_repository(repo):
            assert within_budget(stats.max_retrieval, budget)
        engine.wait()
        engine.tree.check_invariants()
        tree = engine.resolve()
        ref = mp_local_array(batch.compile(), budget)
        assert tree.to_plan() == ref.to_plan()


class TestBMREngineBehavior:
    def test_staleness_accumulates_storage_and_resets(self):
        repo, _, budget = repo_graph_budget(60, seed=8, problem="bmr")
        engine = IngestEngine(
            problem="bmr", budget=budget, staleness_threshold=0.02
        )
        saw_reset = False
        prev = 0.0
        for stats in engine.ingest_repository(repo):
            if stats.resolved:
                assert stats.staleness == 0.0
                saw_reset = prev > 0.0 or saw_reset
            prev = stats.staleness
        assert saw_reset
        assert engine.resolves > 1

    def test_tight_budget_forces_materialization(self):
        # budget 0: every arrival must be materialized (retrieval 0)
        engine = IngestEngine(problem="bmr", budget=0.0)
        engine.ingest_version("a", 10.0)
        stats = engine.ingest_version(
            "b", 12.0, [("a", "b", 1.0, 5.0), ("b", "a", 1.0, 5.0)]
        )
        assert stats.max_retrieval == 0.0
        assert engine.plan().materialized == frozenset({"a", "b"})

    def test_negative_budget_raises(self):
        engine = IngestEngine(problem="bmr", budget=-1.0)
        with pytest.raises(ValueError, match="infeasible"):
            engine.ingest_version("a", 10.0)

    def test_missing_budget_rejected(self):
        with pytest.raises(ValueError, match="exactly one of budget"):
            IngestEngine(problem="bmr")

    def test_both_budget_modes_rejected(self):
        with pytest.raises(ValueError, match="exactly one of budget"):
            IngestEngine(problem="bmr", budget=5.0, budget_factor=2.0)

    def test_unknown_problem_rejected(self):
        with pytest.raises(ValueError, match="unknown problem"):
            IngestEngine(problem="mmr", budget=1.0)

    def test_msr_solver_names_rejected(self):
        with pytest.raises(KeyError, match="BMR engine solver"):
            IngestEngine(problem="bmr", budget=10.0, solver="lmg")

    def test_default_solver_is_mp_local(self):
        engine = IngestEngine(problem="bmr", budget=10.0)
        assert engine.solver_name == "mp-local"
        assert engine.problem == "bmr"
        assert engine.spec.budget_kind == "retrieval"


def brute_force_retrieval_lower_bound(graph) -> float:
    """Reference for the spec's online bound: ``max_v min{ r(e) :
    e a delta into v with s(e) < s_v }`` (0 with no qualifying delta)."""
    best = 0.0
    for v in graph.versions:
        s_v = graph.storage_cost(v)
        bound = min(
            (d.retrieval for d in graph.predecessors(v).values() if d.storage < s_v),
            default=0.0,
        )
        best = max(best, bound)
    return best


class TestBMRBudgetFactor:
    """The PR-4 open item: a BMR analogue of ``budget_factor`` built on
    an online retrieval lower bound (pinned against brute force)."""

    @pytest.mark.parametrize("factor", [1.0, 3.0])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_dynamic_budget_tracks_online_lower_bound(self, factor, seed):
        repo = cached_repo(50, seed=seed)
        engine = IngestEngine(
            problem="bmr", budget_factor=factor, staleness_threshold=0.1
        )
        for stats in engine.ingest_repository(repo):
            # the budget in force is exactly factor x the incremental
            # bound, which must equal the from-scratch recomputation
            expect = factor * brute_force_retrieval_lower_bound(engine.graph)
            assert stats.budget == expect
            if stats.resolved:
                # a fresh solve is feasible against the budget it used;
                # between solves the dynamic budget may tighten (the
                # bound shrinks when a cheaper qualifying delta lands),
                # leaving the standing plan stale until the next solve
                assert within_budget(stats.max_retrieval, stats.budget)
        assert engine.resolves >= 1
        assert engine.current_budget() > 0.0
        tree = engine.resolve()
        assert within_budget(tree.max_retrieval(), engine.current_budget())

    def test_lower_bound_hand_instance(self):
        # b's only cheaper-than-materialization delta forces retrieval 7;
        # c's cheaper deltas force min(5, 9) = 5; a has none -> bound 0.
        engine = IngestEngine(problem="bmr", budget_factor=2.0)
        engine.ingest_version("a", 10.0)
        engine.ingest_version("b", 20.0, [("a", "b", 6.0, 7.0)])
        assert engine.current_budget() == 2.0 * 7.0
        engine.ingest_version(
            "c", 30.0, [("a", "c", 4.0, 5.0), ("b", "c", 8.0, 9.0)]
        )
        assert engine.current_budget() == 2.0 * 7.0  # c's bound is 5 < 7
        # a delta NOT cheaper than materializing must not count
        engine.ingest_version("d", 3.0, [("a", "d", 3.0, 50.0)])
        assert engine.current_budget() == 2.0 * 7.0

    def test_lower_bound_survives_out_of_band_rebuild(self):
        engine = IngestEngine(problem="bmr", budget_factor=1.0)
        engine.ingest_version("a", 10.0)
        engine.ingest_version("b", 20.0, [("a", "b", 6.0, 7.0)])
        assert engine.current_budget() == 7.0
        # out-of-band removal: bookkeeping goes dirty, then rebuilds
        engine.graph.remove_delta("a", "b")
        engine.ingest_version("c", 5.0, [("a", "c", 1.0, 2.0)])
        assert engine.current_budget() == 2.0  # only c's delta qualifies
